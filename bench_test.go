// Package hpmp's top-level benchmarks: one testing.B target per table and
// figure of the paper's evaluation (§8). Each benchmark runs the
// corresponding experiment end to end on the simulated platforms at the
// quick (CI) sizes; `go run ./cmd/hpmpsim run all` executes the full-size
// sweep and prints the tables.
package main_test

import (
	"runtime"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/bench"
	"hpmp/internal/cache"
	"hpmp/internal/cpu"
	"hpmp/internal/dram"
	"hpmp/internal/hpmp"
	"hpmp/internal/kernel"
	"hpmp/internal/memport"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
	"hpmp/internal/ptw"
)

// runExperiment drives one experiment b.N times and reports rows/op so the
// output proves the tables materialized.
func runExperiment(b *testing.B, id string) {
	exp, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	cfg.MemSize = 512 * addr.MiB
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = 0
		for _, t := range res.Tables {
			rows += t.NumRows()
		}
		if rows == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkFig3 regenerates the Figure 3 preview (a–d): single-ld latency,
// GAP, serverless, and Redis, each normalized Table vs Segment on BOOM.
func BenchmarkFig3(b *testing.B) {
	for _, id := range []string{"fig3a", "fig3b", "fig3c", "fig3d"} {
		id := id
		b.Run(id, func(b *testing.B) { runExperiment(b, id) })
	}
}

// BenchmarkFig10 regenerates Figure 10: ld/sd latency under the TC1–TC4
// state recipes of Table 2, on Rocket and BOOM, for PMP/PMPT/HPMP.
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTable3 regenerates Table 3: LMBench OS-operation costs on BOOM.
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig11a regenerates Figure 11-a: the RV8 suite on Rocket.
func BenchmarkFig11a(b *testing.B) { runExperiment(b, "fig11a") }

// BenchmarkFig11bc regenerates Figure 11-b/c: the GAP suite on Rocket and
// BOOM over a Kronecker graph.
func BenchmarkFig11bc(b *testing.B) { runExperiment(b, "fig11bc") }

// BenchmarkFig12ab regenerates Figure 12-a/b: FunctionBench as short-lived
// processes on Rocket and BOOM, with the Host-PMP non-secure baseline.
func BenchmarkFig12ab(b *testing.B) { runExperiment(b, "fig12ab") }

// BenchmarkFig12c regenerates Figure 12-c: the 4-function image-processing
// chain across image sizes.
func BenchmarkFig12c(b *testing.B) { runExperiment(b, "fig12c") }

// BenchmarkFig12de regenerates Figure 12-d/e: the Redis benchmark command
// sweep (RPS) on Rocket and BOOM.
func BenchmarkFig12de(b *testing.B) { runExperiment(b, "fig12de") }

// BenchmarkFig13 regenerates Figure 13: hlv.d latency through 3-D walks
// under PMP/PMPT/HPMP/HPMP-GPT across five TLB/fence states.
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14a regenerates Figure 14-a: domain-switch cost at 2/12/101
// domains.
func BenchmarkFig14a(b *testing.B) { runExperiment(b, "fig14a") }

// BenchmarkFig14bc regenerates Figure 14-b/c: region allocation and release
// latencies, including PMP's entry-exhaustion wall.
func BenchmarkFig14bc(b *testing.B) { runExperiment(b, "fig14bc") }

// BenchmarkFig14d regenerates Figure 14-d: allocation latency vs region
// size, with and without 32 MiB huge permission-table entries.
func BenchmarkFig14d(b *testing.B) { runExperiment(b, "fig14d") }

// BenchmarkFig15 regenerates Figure 15: the fragmentation quadrants
// (contiguous/fragmented VA × contiguous/fragmented PA).
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16: the PMPTW-Cache comparison.
func BenchmarkFig16(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17 regenerates Figure 17: FunctionBench with 8- vs 32-entry
// page walk caches.
func BenchmarkFig17(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkTable4 regenerates Table 4: the hardware resource cost model.
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// bootConfig is the quick experiment configuration every boot benchmark
// and pin below uses.
func bootConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	return cfg
}

// BenchmarkNewSystem measures one machine boot — monitor, permission
// tables and kernel map — on Rocket under each isolation mode. Every
// Table 2 latency probe boots a fresh system, so boot is most of the
// daemon-mix job time. It regresses without the leaf-table-at-a-time
// builders (pmpt.Table.SetRangePermPaged's one fill per leaf table,
// pt.Table.MapRange's one descent per 2 MiB) and without cache levels that
// allocate their lines a chunk at a time on first probe.
func BenchmarkNewSystem(b *testing.B) {
	cfg := bootConfig()
	for _, mode := range bench.AllModes {
		b.Run(bench.ModeNames[mode], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.NewSystem(cpu.RocketPlatform(), mode, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNewSystemAllocs pins the heap objects one quick Rocket boot makes
// under each mode, so a per-call buffer in the table fill path (or any
// other per-boot allocation) fails here rather than as drift in
// alloc_mib.
func TestNewSystemAllocs(t *testing.T) {
	cfg := bootConfig()
	for _, c := range []struct {
		mode monitor.Mode
		max  float64
	}{
		{monitor.ModePMP, 240},
		{monitor.ModePMPT, 279},
		{monitor.ModeHPMP, 281},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := bench.NewSystem(cpu.RocketPlatform(), c.mode, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s boot: %.0f allocs", bench.ModeNames[c.mode], allocs)
		if allocs > c.max {
			t.Errorf("%s boot allocates %.0f objects, want at most %.0f", bench.ModeNames[c.mode], allocs, c.max)
		}
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call, on one OS thread as testing.AllocsPerRun
// does.
func allocBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestNewSystemBytes pins the heap bytes one quick Rocket boot allocates
// under each mode. Cache lines are allocated a 4 KiB chunk at a time on
// first probe, so a boot pays only for the lines its table builds touch;
// allocating every level whole costs ~300 KiB more per boot.
func TestNewSystemBytes(t *testing.T) {
	cfg := bootConfig()
	for _, c := range []struct {
		mode monitor.Mode
		max  uint64
	}{
		{monitor.ModePMP, 64 * addr.KiB},
		{monitor.ModePMPT, 160 * addr.KiB},
		{monitor.ModeHPMP, 160 * addr.KiB},
	} {
		b := allocBytes(10, func() {
			if _, err := bench.NewSystem(cpu.RocketPlatform(), c.mode, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s boot: %d bytes", bench.ModeNames[c.mode], b)
		if b > c.max {
			t.Errorf("%s boot allocates %d bytes, want at most %d", bench.ModeNames[c.mode], b, c.max)
		}
	}
}

// envLoadRig boots a quick Rocket system under mode, spawns one process
// and stores to its first heap page, so that every later Env.Load32 of
// that page hits the L1 TLB and the L1 cache: the workload-facing layer
// above the MMU (Env, the kernel's demand-paging step, the core).
func envLoadRig(tb testing.TB, mode monitor.Mode) (*kernel.Env, addr.VA) {
	sys, err := bench.NewSystem(cpu.RocketPlatform(), mode, bootConfig())
	if err != nil {
		tb.Fatal(err)
	}
	p, err := sys.Kern.Spawn(kernel.Image{Name: "load", TextPages: 4, DataPages: 4})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := sys.Kern.NewEnv(p)
	if err != nil {
		tb.Fatal(err)
	}
	va := p.Heap()
	e.Store32(va, 1)
	if err := e.Err(); err != nil {
		tb.Fatal(err)
	}
	return e, va
}

// BenchmarkEnvLoadHit measures the simulator's own cost of one
// steady-state workload load, Env.Load32 of a mapped heap page, under each
// isolation mode. Against BenchmarkTLBHitAccess (the MMU alone) it shows
// what the layers above the MMU add to every GAP scalar load.
func BenchmarkEnvLoadHit(b *testing.B) {
	for _, mode := range bench.AllModes {
		b.Run(bench.ModeNames[mode], func(b *testing.B) {
			e, va := envLoadRig(b, mode)
			b.ReportAllocs()
			b.ResetTimer()
			var sum uint32
			for i := 0; i < b.N; i++ {
				sum += e.Load32(va)
			}
			if err := e.Err(); err != nil || sum != uint32(b.N) {
				b.Fatalf("sum %d over %d loads, err %v", sum, b.N, err)
			}
		})
	}
}

// TestEnvLoadHitZeroAllocs pins BenchmarkEnvLoadHit's loop at zero
// allocations per load under every mode.
func TestEnvLoadHitZeroAllocs(t *testing.T) {
	for _, mode := range bench.AllModes {
		e, va := envLoadRig(t, mode)
		allocs := testing.AllocsPerRun(1000, func() { e.Load32(va) })
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s: Env.Load32 hit allocates %.1f times per op, want 0", bench.ModeNames[mode], allocs)
		}
	}
}

// benchRig builds a minimal one-hart stack (cache hierarchy + HPMP checker
// + MMU) and returns an MMU with one user page mapped, so a benchmark can
// drive the steady-state TLB-hit path directly.
func benchRig(b testing.TB) (*mmu.MMU, addr.VA) {
	const memSize = 256 * addr.MiB
	mem := phys.New(memSize)
	hier := &cache.Hierarchy{
		L1:         cache.New(cache.Config{Name: "l1d", Size: 32 * addr.KiB, Ways: 8, LineSize: 64, Latency: 2}),
		L2:         cache.New(cache.Config{Name: "l2", Size: 512 * addr.KiB, Ways: 8, LineSize: 64, Latency: 12}),
		LLC:        cache.New(cache.Config{Name: "llc", Size: 4 * addr.MiB, Ways: 8, LineSize: 64, Latency: 26}),
		Mem:        dram.New(dram.Default()),
		ClockRatio: 1.0,
	}
	ptRegion := addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}
	ptAlloc := phys.NewFrameAllocator(ptRegion, false)
	tbl, err := pt.New(mem, ptAlloc, addr.Sv39)
	if err != nil {
		b.Fatal(err)
	}
	port := &memport.Timed{Hier: hier, Mem: mem}
	checker := hpmp.New(&pmpt.Walker{Port: port})
	if err := checker.SetSegment(0, addr.Range{Base: 0, Size: memSize}, perm.RWX, false); err != nil {
		b.Fatal(err)
	}
	m := mmu.New(mmu.DefaultConfig(addr.Sv39), hier, mem, checker, port)
	m.SetRoot(tbl.Root())
	va := addr.VA(0x1000_0000)
	if err := tbl.Map(va, 0x800_0000, perm.RW, true); err != nil {
		b.Fatal(err)
	}
	return m, va
}

// BenchmarkTLBHitAccess measures the simulator's own cost of one steady-state
// data access that hits the L1 TLB — the hot path every simulated memory
// reference pays. The PR-2 invariant is 0 allocs/op; BENCH_pr2.json records
// the pre/post numbers.
func BenchmarkTLBHitAccess(b *testing.B) {
	m, va := benchRig(b)
	// Warm the TLB and caches.
	var res mmu.Result
	if err := m.Access(va, perm.Read, perm.U, 0, &res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(1000)
	for i := 0; i < b.N; i++ {
		if err := m.Access(va, perm.Read, perm.U, now, &res); err != nil {
			b.Fatal(err)
		}
		now += res.Latency
	}
}

// BenchmarkAccessBatchTLBHit measures the same steady-state TLB-hit stream
// submitted through the batched entry point, blockSize references at a
// time — the per-reference cost floor once dispatch and the trace/observer
// tests are amortized across a block.
func BenchmarkAccessBatchTLBHit(b *testing.B) {
	m, va := benchRig(b)
	var warm mmu.Result
	if err := m.Access(va, perm.Read, perm.U, 0, &warm); err != nil {
		b.Fatal(err)
	}
	const blockSize = 64
	refs := make([]mmu.AccessReq, blockSize)
	for i := range refs {
		refs[i] = mmu.AccessReq{VA: va, Kind: perm.Read, Priv: perm.U}
	}
	out := make([]mmu.Result, blockSize)
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(1000)
	for i := 0; i < b.N; i += blockSize {
		end, err := m.AccessBatch(refs, out, now)
		if err != nil {
			b.Fatal(err)
		}
		now = end
	}
}

// ptwWalkRig builds a page-table walker with an 8-entry PWC over a flat
// memory port, with one VA mapped and the PWC warmed so that every PTE
// fetch of a repeat walk hits the PWC — the walker's hottest loop after
// the L1 TLB.
func ptwWalkRig(tb testing.TB) (*ptw.Walker, addr.PA, addr.VA) {
	mem := phys.New(64 * addr.MiB)
	ptAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, false)
	tbl, err := pt.New(mem, ptAlloc, addr.Sv39)
	if err != nil {
		tb.Fatal(err)
	}
	va := addr.VA(0x1000_0000)
	if err := tbl.Map(va, 0x80_0000, perm.RW, true); err != nil {
		tb.Fatal(err)
	}
	w := ptw.New(addr.Sv39, &memport.Flat{Mem: mem, Latency: 10}, nil, 8)
	if res, err := w.Walk(tbl.Root(), va, 0); err != nil || res.PageFault {
		tb.Fatalf("warm walk failed: %+v %v", res, err)
	}
	return w, tbl.Root(), va
}

// BenchmarkPTWWalkPWCHit measures the simulator's own cost of one page
// walk whose three PTE fetches all hit the page walk cache. The PR-3
// invariant is 0 allocs/op; BENCH_pr3.json records the pre/post numbers.
func BenchmarkPTWWalkPWCHit(b *testing.B) {
	w, root, va := ptwWalkRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(1000)
	for i := 0; i < b.N; i++ {
		res, err := w.Walk(root, va, now)
		if err != nil {
			b.Fatal(err)
		}
		now += res.Latency + 1
	}
}

// TestPTWWalkPWCHitZeroAllocs pins the PR-3 invariant outside the
// benchmark: a PWC-hit page walk must not allocate.
func TestPTWWalkPWCHitZeroAllocs(t *testing.T) {
	w, root, va := ptwWalkRig(t)
	now := uint64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := w.Walk(root, va, now)
		if err != nil || res.PageFault {
			t.Fatalf("%+v %v", res, err)
		}
		now += res.Latency + 1
	})
	if allocs != 0 {
		t.Errorf("PWC-hit walk allocates %.1f times per op, want 0", allocs)
	}
}

// pmptWalkRig builds a PMPTW with an enabled 8-entry walker cache over a
// 2-level PMP Table, warmed so both pmpte fetches of a repeat check hit
// the cache.
func pmptWalkRig(tb testing.TB) (*pmpt.Walker, addr.PA, addr.Range, addr.PA) {
	mem := phys.New(256 * addr.MiB)
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 16 * addr.MiB}, false)
	region := addr.Range{Base: 0, Size: 256 * addr.MiB}
	tbl, err := pmpt.NewTable(mem, alloc, region)
	if err != nil {
		tb.Fatal(err)
	}
	pa := addr.PA(0x800_0000)
	if err := tbl.SetRangePerm(addr.Range{Base: pa, Size: addr.MiB}, perm.RW); err != nil {
		tb.Fatal(err)
	}
	cache := pmpt.NewWalkerCache(8)
	cache.Enabled = true
	w := &pmpt.Walker{Port: &memport.Flat{Mem: mem, Latency: 10}, Cache: cache}
	res, err := w.Walk(tbl.RootBase(), region, pa, 0)
	if err != nil || !res.Valid {
		tb.Fatalf("warm walk failed: %+v %v", res, err)
	}
	return w, tbl.RootBase(), region, pa
}

// BenchmarkPMPTWalkCacheHit measures the simulator's own cost of one
// permission-table walk whose root and leaf pmpte fetches both hit the
// PMPTW cache. The PR-3 invariant is 0 allocs/op; BENCH_pr3.json records
// the pre/post numbers.
func BenchmarkPMPTWalkCacheHit(b *testing.B) {
	w, root, region, pa := pmptWalkRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(1000)
	for i := 0; i < b.N; i++ {
		res, err := w.Walk(root, region, pa, now)
		if err != nil {
			b.Fatal(err)
		}
		now += res.Latency + 1
	}
}

// TestPMPTWalkCacheHitZeroAllocs pins the PR-3 invariant outside the
// benchmark: a cache-hit permission-table walk must not allocate.
func TestPMPTWalkCacheHitZeroAllocs(t *testing.T) {
	w, root, region, pa := pmptWalkRig(t)
	now := uint64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := w.Walk(root, region, pa, now)
		if err != nil || !res.Valid {
			t.Fatalf("%+v %v", res, err)
		}
		now += res.Latency + 1
	})
	if allocs != 0 {
		t.Errorf("cache-hit permission walk allocates %.1f times per op, want 0", allocs)
	}
}

// TestTLBHitAccessZeroAllocs pins the tentpole invariant outside the
// benchmark: a steady-state TLB-hit access must not allocate. If a future
// change reintroduces a per-access allocation (a string key, an interface
// box, a map lookup), this fails immediately instead of showing up as a
// slow drift in benchmark numbers.
func TestTLBHitAccessZeroAllocs(t *testing.T) {
	m, va := benchRig(t)
	var res mmu.Result
	if err := m.Access(va, perm.Read, perm.U, 0, &res); err != nil {
		t.Fatal(err)
	}
	now := uint64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := m.Access(va, perm.Read, perm.U, now, &res); err != nil {
			t.Fatal(err)
		}
		now += res.Latency
	})
	if allocs != 0 {
		t.Errorf("TLB-hit access allocates %.1f times per op, want 0", allocs)
	}
}

// TestAccessBatchZeroAllocs pins the batched entry point's budget: with the
// request and result slices provided by the caller, a steady-state block of
// TLB-hit accesses must not allocate at all.
func TestAccessBatchZeroAllocs(t *testing.T) {
	m, va := benchRig(t)
	var warm mmu.Result
	if err := m.Access(va, perm.Read, perm.U, 0, &warm); err != nil {
		t.Fatal(err)
	}
	refs := make([]mmu.AccessReq, 64)
	for i := range refs {
		refs[i] = mmu.AccessReq{VA: va, Kind: perm.Read, Priv: perm.U}
	}
	out := make([]mmu.Result, len(refs))
	now := uint64(1000)
	allocs := testing.AllocsPerRun(100, func() {
		end, err := m.AccessBatch(refs, out, now)
		if err != nil {
			t.Fatal(err)
		}
		now = end
	})
	if allocs != 0 {
		t.Errorf("batched TLB-hit access allocates %.1f times per block, want 0", allocs)
	}
}

// TestTLBHitAccessZeroAllocsWithTracer pins the enabled-tracing budget: a
// traced access writes into the tracer's preallocated ring, so even with a
// tracer attached the steady-state path must not allocate. (The disabled
// state is covered by TestTLBHitAccessZeroAllocs — the hooks are nil there
// and cost one pointer compare.)
func TestTLBHitAccessZeroAllocsWithTracer(t *testing.T) {
	m, va := benchRig(t)
	m.Trace = obs.NewTracer(obs.DefaultRing, 1)
	var res mmu.Result
	if err := m.Access(va, perm.Read, perm.U, 0, &res); err != nil {
		t.Fatal(err)
	}
	now := uint64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := m.Access(va, perm.Read, perm.U, now, &res); err != nil {
			t.Fatal(err)
		}
		now += res.Latency
	})
	if allocs != 0 {
		t.Errorf("traced TLB-hit access allocates %.1f times per op, want 0", allocs)
	}
	if m.Trace.Seen() == 0 {
		t.Error("tracer saw no events despite being attached")
	}
}

// TestPTWWalkPWCHitZeroAllocsWithTracer: same budget for the walker's
// PTE-fetch events.
func TestPTWWalkPWCHitZeroAllocsWithTracer(t *testing.T) {
	w, root, va := ptwWalkRig(t)
	w.Trace = obs.NewTracer(obs.DefaultRing, 1)
	now := uint64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := w.Walk(root, va, now)
		if err != nil || res.PageFault {
			t.Fatalf("%+v %v", res, err)
		}
		now += res.Latency + 1
	})
	if allocs != 0 {
		t.Errorf("traced PWC-hit walk allocates %.1f times per op, want 0", allocs)
	}
	if w.Trace.Seen() == 0 {
		t.Error("tracer saw no events despite being attached")
	}
}

// TestHPMPCheckSegmentZeroAllocs pins the checker's segment fast path with
// the check-latency histogram attached: a T=0 match is a register compare
// plus one in-place histogram bucket increment, and must not allocate.
func TestHPMPCheckSegmentZeroAllocs(t *testing.T) {
	checker := hpmp.New(&pmpt.Walker{Port: &memport.Flat{Mem: phys.New(64 * addr.MiB), Latency: 10}})
	if err := checker.SetSegment(0, addr.Range{Base: 0, Size: 64 * addr.MiB}, perm.RWX, false); err != nil {
		t.Fatal(err)
	}
	pa := addr.PA(0x10_0000)
	if res, err := checker.Check(pa, 8, perm.Read, perm.U, 0); err != nil || !res.Allowed {
		t.Fatalf("warm check failed: %+v %v", res, err)
	}
	now := uint64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := checker.Check(pa, 8, perm.Read, perm.U, now)
		if err != nil || !res.Allowed {
			t.Fatalf("%+v %v", res, err)
		}
		now++
	})
	if allocs != 0 {
		t.Errorf("segment check allocates %.1f times per op, want 0", allocs)
	}
	if checker.Hist.Count() == 0 {
		t.Error("check-latency histogram recorded nothing despite being attached")
	}
}

// TestHotPathHistogramsRecord: after driving the four instrumented hot
// paths, each unit's latency histogram carries the observations the metrics
// snapshots will export — the end-to-end wiring the observability PR added.
func TestHotPathHistogramsRecord(t *testing.T) {
	m, va := benchRig(t)
	var res mmu.Result
	for i := 0; i < 4; i++ {
		if err := m.Access(va, perm.Read, perm.U, uint64(i*100), &res); err != nil {
			t.Fatal(err)
		}
	}
	if m.LatHist.Count() == 0 {
		t.Error("mmu.access_latency histogram is empty")
	}
	if m.Walker.Hist.Count() == 0 {
		t.Error("ptw.walk_latency histogram is empty")
	}

	w, root, region, pa := pmptWalkRig(t)
	if _, err := w.Walk(root, region, pa, 100); err != nil {
		t.Fatal(err)
	}
	if w.Hist().Count() == 0 {
		t.Error("pmptw.walk_latency histogram is empty")
	}
}
