// Package hpmp's top-level benchmarks: one testing.B target per table and
// figure of the paper's evaluation (§8). Each benchmark runs the
// corresponding experiment end to end on the simulated platforms at the
// quick (CI) sizes; `go run ./cmd/hpmpsim run all` executes the full-size
// sweep and prints the tables.
package main_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
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
	"hpmp/internal/pmp"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
	"hpmp/internal/ptw"
	"hpmp/internal/replay"
	"hpmp/internal/simcfg"
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
// pt.Table.MapRange's one descent per 2 MiB), without cache levels that
// allocate their lines a chunk at a time on first probe, and without
// physical memory's shared pattern frames (the host's all-DRAM grant
// fills 16 permission-table leaf frames with one word each).
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
		{monitor.ModePMP, 195},
		{monitor.ModePMPT, 215},
		{monitor.ModeHPMP, 217},
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
// under each mode, beside TestNewSystemAllocs's object counts: physical
// memory is allocated in 512-byte sectors, which makes more and smaller
// objects, so the object count alone no longer follows the bytes. Cache
// lines are allocated a 2 KiB chunk at a time on first probe, so a boot
// pays only for the lines its table builds touch; allocating every level
// whole costs ~300 KiB more per boot. The sector directory is allocated a
// 16 MiB page at a time, and a permission-table frame filled with one
// word shares one 512-byte pattern sector. A boot allocates ~33 KiB under
// PMP and ~51 KiB under PMPT and HPMP.
func TestNewSystemBytes(t *testing.T) {
	cfg := bootConfig()
	for _, c := range []struct {
		mode monitor.Mode
		max  uint64
	}{
		{monitor.ModePMP, 36 * addr.KiB},
		{monitor.ModePMPT, 56 * addr.KiB},
		{monitor.ModeHPMP, 56 * addr.KiB},
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

// memSink keeps TestNewMemoryBytesAtMaxSize's memories on the heap.
var memSink *phys.Memory

// TestNewMemoryBytesAtMaxSize pins what an empty memory of the largest
// DRAM a machine may have costs: its sector directory holds one pointer
// per 16 MiB, 8 KiB at simcfg.MaxMemSize, where one pointer per 256 KiB
// leaf was 512 KiB that every boot allocated and the GC scanned.
func TestNewMemoryBytesAtMaxSize(t *testing.T) {
	b := allocBytes(10, func() { memSink = phys.New(simcfg.MaxMemSize) })
	t.Logf("phys.New(%d): %d bytes", uint64(simcfg.MaxMemSize), b)
	if b > 16*addr.KiB {
		t.Errorf("phys.New(simcfg.MaxMemSize) allocates %d bytes, want at most %d", b, 16*addr.KiB)
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

// The walk-miss rig's mapping: 64 MiB of 4 KiB pages, far beyond the
// TLBs' reach, visited walkMissStride pages apart.
const (
	walkMissPages  = 16384
	walkMissStride = 7919 // odd, so the visit order covers every page
	walkMissBase   = addr.VA(0x10_0000_0000)
)

// walkMissModes are the isolation modes BenchmarkWalkMissAccess runs.
var walkMissModes = []simcfg.Mode{simcfg.ModePMP, simcfg.ModePMPT, simcfg.ModeHPMP}

// walkMissRig assembles the default replay machine under mode, maps
// walkMissPages pages on frames scattered over DRAM and reads every page
// once in visit order, which also allocates every cache chunk a later
// visit probes. It returns the machine's MMU, the pages' VAs in visit
// order and the clock after the reads. Consecutive pages are walkMissStride
// pages apart, so every access misses both TLBs and walks, and its leaf
// PTE fetch misses the PWC: under PMPT and HPMP the walk's PT fetches and
// the data reference are checked against the permission table.
func walkMissRig(tb testing.TB, mode simcfg.Mode) (*mmu.MMU, []addr.VA, uint64) {
	cfg := simcfg.Default()
	cfg.Mode = mode
	eng, err := replay.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// Data frames avoid the first MiB and the replay engine's two 16 MiB
	// pools at the top of DRAM.
	first := addr.MiB >> addr.PageShift
	frames := rand.New(rand.NewSource(1)).Perm(int((cfg.MemSize-32*addr.MiB)>>addr.PageShift) - first)
	vas := make([]addr.VA, walkMissPages)
	events := make([]obs.Event, walkMissPages)
	for i := range vas {
		page := i * walkMissStride % walkMissPages
		vas[i] = walkMissBase + addr.VA(page*addr.PageSize)
		events[i] = obs.Event{Seq: uint64(i + 1), Kind: obs.KindAccess, Access: perm.Read,
			VA: vas[i], PA: addr.PA((first + frames[page]) * addr.PageSize)}
	}
	if err := eng.Run(events); err != nil {
		tb.Fatal(err)
	}
	if st := eng.Stats; st.Accesses != walkMissPages || st.Divergences != 0 {
		tb.Fatalf("rig replayed %d of %d pages, %d divergences: %s", st.Accesses, walkMissPages, st.Divergences, st.First)
	}
	return eng.Machine().MMU, vas, eng.Now()
}

// BenchmarkWalkMissAccess measures the simulator's own cost of one data
// access that misses the TLBs and walks, under each isolation mode: the
// paper's extra dimension, where every PT fetch and the data reference
// probe the cache hierarchy and, under PMPT and HPMP, the permission
// checker. It is the layer replay-walk exercises, and it regresses without
// recency-ordered cache sets and PMP entries decoded when written.
func BenchmarkWalkMissAccess(b *testing.B) {
	for _, mode := range walkMissModes {
		b.Run(strings.ToUpper(string(mode)), func(b *testing.B) {
			m, vas, now := walkMissRig(b, mode)
			var res mmu.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Access(vas[i%walkMissPages], perm.Read, perm.U, now, &res); err != nil || res.Faulted() {
					b.Fatalf("%+v %v", res, err)
				}
				now += res.Latency
			}
		})
	}
}

// TestWalkMissAccessZeroAllocs pins BenchmarkWalkMissAccess's loop at zero
// allocations per access under every mode, and checks that the loop does
// what the benchmark claims: every access walks and fetches a PTE from
// memory.
func TestWalkMissAccessZeroAllocs(t *testing.T) {
	for _, mode := range walkMissModes {
		m, vas, now := walkMissRig(t, mode)
		var res mmu.Result
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			if err := m.Access(vas[i%walkMissPages], perm.Read, perm.U, now, &res); err != nil || res.Faulted() {
				t.Fatalf("%+v %v", res, err)
			}
			if res.TLBHit != obs.TLBMiss || res.Walk.PTRefs == 0 {
				t.Fatalf("%s: access %d did not walk to memory: %+v", mode, i, res)
			}
			now += res.Latency
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: walk-miss access allocates %.1f times per op, want 0", mode, allocs)
		}
	}
}

// physReadWords is how many words physReadRig writes, one per page; a
// power of two, so a benchmark indexes them with a mask.
const physReadWords = 4096

// physReadRig returns a 64 MiB memory with one word written into every
// other page of its first 32 MiB, and the words' addresses in a scattered
// order: sparse pages, as the key-value store leaves them, read word by
// word, as the walkers read tables.
func physReadRig(tb testing.TB) (*phys.Memory, []addr.PA) {
	m := phys.New(64 * addr.MiB)
	pas := make([]addr.PA, physReadWords)
	for i := range pas {
		j := i * 1237 % physReadWords // odd stride: a permutation
		pas[i] = addr.PA(j)*2*addr.PageSize + addr.PA(j*520%addr.PageSize)
		if err := m.Write64(pas[i], uint64(j)); err != nil {
			tb.Fatal(err)
		}
	}
	return m, pas
}

// BenchmarkPhysRead64 measures physical memory's own cost of one 64-bit
// read, the operation behind every PTE and pmpte fetch: the layer
// benchmark of internal/phys.
func BenchmarkPhysRead64(b *testing.B) {
	m, pas := physReadRig(b)
	var sum uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := m.Read64(pas[i&(physReadWords-1)])
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
	physSink = sum
}

// physSink keeps BenchmarkPhysRead64's reads live.
var physSink uint64

// TestPhysRead64ZeroAllocs pins BenchmarkPhysRead64's loop, and a read of a
// page never written, at zero allocations, and checks that every word
// reads back.
func TestPhysRead64ZeroAllocs(t *testing.T) {
	m, pas := physReadRig(t)
	i := 0
	allocs := testing.AllocsPerRun(physReadWords, func() {
		v, err := m.Read64(pas[i])
		if want := uint64(i * 1237 % physReadWords); err != nil || v != want {
			t.Fatalf("word %d reads %d, %v; want %d", i, v, err, want)
		}
		if v, err := m.Read64(pas[i] + addr.PageSize); err != nil || v != 0 {
			t.Fatalf("an untouched page reads %d, %v; want 0", v, err)
		}
		i = (i + 1) % physReadWords
	})
	if allocs != 0 {
		t.Errorf("Read64 allocates %.1f times per op, want 0", allocs)
	}
}

// hierarchyStream drives a Rocket cache hierarchy, advancing its clock by
// each reference's latency as an in-order core would.
type hierarchyStream struct {
	h   *cache.Hierarchy
	pa  addr.PA
	now uint64
}

// The miss stream strides hierarchyMissStride through hierarchyMissSpan, 64
// times the Rocket LLC: a line comes back a million references later, long
// after every level evicted it. The stride is an odd number of lines, so
// one pass of 1<<16 references probes every set of every level.
const (
	hierarchyMissSpan   = 64 * addr.MiB
	hierarchyMissStride = 17 * cache.LineSize
)

// hierarchyRig returns a fresh Rocket hierarchy (the three cache levels and
// the DRAM model of cpu.NewMachine) with the line at 0 loaded, and a miss
// stream over another one whose every set has been probed.
func hierarchyRig() (hit, miss *hierarchyStream) {
	newHier := func() *cache.Hierarchy {
		plat := cpu.RocketPlatform()
		return cache.NewHierarchy(cache.New(plat.L1D), cache.New(plat.L2), cache.New(plat.LLC),
			dram.New(), plat.Core.MemClockRatio)
	}
	hit, miss = &hierarchyStream{h: newHier()}, &hierarchyStream{h: newHier()}
	hit.access()
	for range 1 << 16 {
		miss.next()
	}
	return hit, miss
}

// access makes one read of the stream's current line.
func (s *hierarchyStream) access() cache.Level {
	r := s.h.Access(s.pa, s.now, false)
	s.now += r.Latency
	return r.Level
}

// next makes one read and moves the stream on to its next line.
func (s *hierarchyStream) next() cache.Level {
	lvl := s.access()
	s.pa = (s.pa + hierarchyMissStride) % hierarchyMissSpan
	return lvl
}

// BenchmarkHierarchyAccess measures the cache hierarchy's own cost of one
// line-sized reference on the Rocket geometry: an L1 hit, and a miss in
// every level that goes on to the DRAM model. It is the layer benchmark of
// internal/cache and internal/dram, and it regresses if the set index or
// the DRAM bank mapping divide by a runtime value again.
func BenchmarkHierarchyAccess(b *testing.B) {
	hit, miss := hierarchyRig()
	for _, c := range []struct {
		name string
		step func() cache.Level
	}{{"L1Hit", hit.access}, {"DRAMMiss", miss.next}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.step()
			}
		})
	}
}

// TestHierarchyAccessZeroAllocs pins both of BenchmarkHierarchyAccess's
// loops at zero allocations per reference, and checks that each does what
// the benchmark claims: the hit loop hits the L1, the miss loop reaches
// DRAM.
func TestHierarchyAccessZeroAllocs(t *testing.T) {
	hit, miss := hierarchyRig()
	for _, c := range []struct {
		name string
		want cache.Level
		step func() cache.Level
	}{{"L1 hit", cache.LvlL1, hit.access}, {"DRAM miss", cache.LvlDRAM, miss.next}} {
		wrong := 0
		allocs := testing.AllocsPerRun(1000, func() {
			if c.step() != c.want {
				wrong++
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a reference allocates %.1f times, want 0", c.name, allocs)
		}
		if wrong != 0 {
			t.Errorf("%s: %d of 1001 references were not satisfied at %v", c.name, wrong, c.want)
		}
	}
}

// benchRig builds a minimal one-hart stack (cache hierarchy + HPMP checker
// + MMU) and returns an MMU with one user page mapped, so a benchmark can
// drive the steady-state TLB-hit path directly.
func benchRig(b testing.TB) (*mmu.MMU, addr.VA) {
	const memSize = 256 * addr.MiB
	mem := phys.New(memSize)
	hier := cache.NewHierarchy(
		cache.New(cache.Config{Name: "l1d", Size: 32 * addr.KiB, Ways: 8, Latency: 2}),
		cache.New(cache.Config{Name: "l2", Size: 512 * addr.KiB, Ways: 8, Latency: 12}),
		cache.New(cache.Config{Name: "llc", Size: 4 * addr.MiB, Ways: 8, Latency: 26}),
		dram.New(), 1.0)
	ptRegion := addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}
	ptAlloc := phys.NewFrameAllocator(ptRegion, false)
	tbl, err := pt.New(mem, ptAlloc, addr.Sv39)
	if err != nil {
		b.Fatal(err)
	}
	port := &memport.Timed{Hier: hier, Mem: mem}
	checker := hpmp.NewSized(pmpt.NewWalker(port, nil), pmp.NumEntries)
	if err := checker.SetSegment(0, addr.Range{Base: 0, Size: memSize}, perm.RWX, false); err != nil {
		b.Fatal(err)
	}
	m := mmu.New(mmu.DefaultConfig(addr.Sv39), hier, checker, port)
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
	var res ptw.Result
	if err := w.WalkInto(tbl.Root(), va, 0, &res); err != nil || res.PageFault {
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
	var res ptw.Result
	for i := 0; i < b.N; i++ {
		err := w.WalkInto(root, va, now, &res)
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
	var res ptw.Result
	allocs := testing.AllocsPerRun(1000, func() {
		err := w.WalkInto(root, va, now, &res)
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
	w := pmpt.NewWalker(&memport.Flat{Mem: mem, Latency: 10}, cache)
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
	var res ptw.Result
	allocs := testing.AllocsPerRun(1000, func() {
		err := w.WalkInto(root, va, now, &res)
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
	checker := hpmp.NewSized(pmpt.NewWalker(&memport.Flat{Mem: phys.New(64 * addr.MiB), Latency: 10}, nil), pmp.NumEntries)
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
	if checker.Hist.Snapshot().Count == 0 {
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
	if m.LatHist.Snapshot().Count == 0 {
		t.Error("mmu.access_latency histogram is empty")
	}
	if m.Walker.Hist.Snapshot().Count == 0 {
		t.Error("ptw.walk_latency histogram is empty")
	}

	w, root, region, pa := pmptWalkRig(t)
	if _, err := w.Walk(root, region, pa, 100); err != nil {
		t.Fatal(err)
	}
	if w.Hist.Snapshot().Count == 0 {
		t.Error("pmptw.walk_latency histogram is empty")
	}
}

// BenchmarkReadTrace measures decoding a full default-ring trace: 4096
// events of every kind, in the form the trace writer emits. The daemon
// parses every replay job's uploaded trace this way inside the job's
// submit→done window.
func BenchmarkReadTrace(b *testing.B) {
	tr := obs.NewTracer(obs.DefaultRing, 1)
	for i := 0; i < obs.DefaultRing; i++ {
		va := addr.VA(0x4000_0000 + uint64(i)*0x1040)
		pa := addr.PA(0x8000_0000 + uint64(i)*0x1040)
		switch i % 4 {
		case 0:
			tr.Emit(obs.Event{Kind: obs.KindAccess, Access: perm.Access(i / 4 % 3), TLB: obs.TLBPath(1 + i/4%3),
				Level: -1, VA: va, PA: pa, Refs: uint16(i % 7), ChkRefs: uint16(i % 3), Cycles: uint64(4 + i%90)})
		case 1:
			tr.Emit(obs.Event{Kind: obs.KindPTEFetch, Level: int8(i / 4 % 3), Hit: i%3 == 0, PA: pa &^ 7, Refs: 1, Cycles: 20})
		case 2:
			tr.Emit(obs.Event{Kind: obs.KindPMPTFetch, Level: -1, Hit: i%5 == 0, PA: pa &^ 7, Refs: 1, ChkRefs: 1, Cycles: 20})
		default:
			tr.Emit(obs.Event{Kind: obs.KindCheck, Access: perm.Read, Level: 2, Hit: true, PA: pa, Refs: 2, ChkRefs: 2, Cycles: 40})
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, "bench", tr); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, events, err := obs.ReadTrace(bytes.NewReader(raw)); err != nil || len(events) != obs.DefaultRing {
			b.Fatalf("read %d events, err %v", len(events), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*obs.DefaultRing), "ns/event")
}
