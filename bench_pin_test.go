// Latency pins for the steady-state TLB-hit access. Building mmu.Result in
// caller storage instead of returning it by value through the access chain
// cut it from ~120 to ~25 ns/op (BENCH_pr6.json). The pins catch that
// class of regression — a large-struct copy, an allocation or a map lookup
// on the per-access path — without an absolute bound: each one times the
// access path against a fixed calibration loop, interleaved in short
// rounds, and bounds the median ratio, so host load that slows both
// cancels out. Excluded from race builds — instrumentation inflates the hot
// path far past the bound and would only measure the race detector.
//
//go:build !race

package main_test

import (
	"sort"
	"testing"
	"time"

	"hpmp/internal/mmu"
	"hpmp/internal/perm"
)

const (
	// pinRounds interleaved calibration/access rounds of pinOps operations
	// each: 1–3 ms per side per round, ~130 ms per pin.
	pinRounds = 31
	pinOps    = 1 << 15
	// pinMaxRatio bounds access ns/op over calibration ns/op. On a 2-vCPU
	// Xeon host the TLB-hit access measures 0.50–0.62× the calibration
	// loop, whether the host runs it at ~20 or ~40 ns/op; with mmu.Result
	// returned by value through the access chain again it measures
	// 1.07–1.41×.
	pinMaxRatio = 0.8
)

// calibTable is the calibration loop's working set: 16 KiB, resident in
// the L1 data cache like the access path's TLB, cache-line and histogram
// probes.
var calibTable = func() *[4096]uint32 {
	var t [4096]uint32
	for i := range t {
		t[i] = uint32(i) * 0x9e3779b9
	}
	return &t
}()

// calibSink keeps the calibration loop's result live.
var calibSink uint32

// calibrate runs n operations of the reference workload. It touches
// nothing in the simulator, so its cost tracks only the host's current
// speed: frequency, and how much of the core a sibling hardware thread
// takes.
func calibrate(n int) {
	x := calibSink
	for i := 0; i < n; i++ {
		x = calibStep(calibTable, x)
	}
	calibSink = x
}

// calibStep is one calibration operation: a call the compiler may not
// inline, 64 table loads into four independent accumulators and a
// data-dependent branch per four loads. Like the access path it is bound by
// instruction and load throughput rather than by one dependency chain, so
// a busy sibling thread slows both alike.
//
//go:noinline
func calibStep(t *[4096]uint32, x uint32) uint32 {
	var s0, s1, s2, s3 uint32
	for i := uint32(0); i < 64; i += 4 {
		j := (x + i*1031) & 4095
		s0 += t[j] ^ x
		s1 += t[(j+1)&4095] + s0
		s2 ^= t[(j+2)&4095] * 3
		s3 += t[(j+3)&4095] >> 1
		if s0&1 != 0 {
			s1++
		}
	}
	return s0 ^ s1 ^ s2 ^ s3
}

// pinRatio returns the median over pinRounds of (access ns/op) /
// (calibration ns/op), alternating which side runs first in each round.
func pinRatio(access func(n int)) float64 {
	timed := func(f func(int)) float64 {
		start := time.Now()
		f(pinOps)
		return float64(time.Since(start).Nanoseconds()) / pinOps
	}
	ratios := make([]float64, pinRounds)
	for r := range ratios {
		var a, c float64
		if r%2 == 0 {
			c, a = timed(calibrate), timed(access)
		} else {
			a, c = timed(access), timed(calibrate)
		}
		ratios[r] = a / c
	}
	sort.Float64s(ratios)
	return ratios[pinRounds/2]
}

// checkPin warms both loops once, then fails t when the median ratio
// exceeds pinMaxRatio.
func checkPin(t *testing.T, what string, access func(n int)) {
	if testing.Short() {
		t.Skip("timing pin; skipped with -short")
	}
	calibrate(pinOps)
	access(pinOps)
	r := pinRatio(access)
	t.Logf("%s: %.2f× the calibration loop", what, r)
	if r > pinMaxRatio {
		t.Errorf("%s costs %.2f× the calibration loop (median of %d rounds), want ≤ %.2f×",
			what, r, pinRounds, pinMaxRatio)
	}
}

// TestTLBHitAccessLatencyPin times BenchmarkTLBHitAccess's loop: one
// mmu.Access per operation, every one an L1 TLB hit.
func TestTLBHitAccessLatencyPin(t *testing.T) {
	m, va := benchRig(t)
	var res mmu.Result
	now := uint64(1000)
	checkPin(t, "TLB-hit access", func(n int) {
		for i := 0; i < n; i++ {
			if err := m.Access(va, perm.Read, perm.U, now, &res); err != nil {
				t.Fatal(err)
			}
			now += res.Latency
		}
	})
}

// TestAccessBatchLatencyPin holds the batched entry point to the same
// bound, timing BenchmarkAccessBatchTLBHit's loop of 64-reference blocks.
func TestAccessBatchLatencyPin(t *testing.T) {
	m, va := benchRig(t)
	refs := make([]mmu.AccessReq, 64)
	for i := range refs {
		refs[i] = mmu.AccessReq{VA: va, Kind: perm.Read, Priv: perm.U}
	}
	out := make([]mmu.Result, len(refs))
	now := uint64(1000)
	checkPin(t, "batched TLB-hit access", func(n int) {
		for i := 0; i < n; i += len(refs) {
			end, err := m.AccessBatch(refs, out, now)
			if err != nil {
				t.Fatal(err)
			}
			now = end
		}
	})
}
