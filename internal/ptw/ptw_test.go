package ptw

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/assoc"
	"hpmp/internal/hpmp"
	"hpmp/internal/memport"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmp"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
)

type env struct {
	mem   *phys.Memory
	alloc *phys.FrameAllocator
	tbl   *pt.Table
	port  memport.Port
}

func newEnv(t *testing.T) *env {
	t.Helper()
	mem := phys.New(512 * addr.MiB)
	// PT pages contiguous at 0x100000 — the HPMP "fast GMS" layout.
	ptAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, false)
	tbl, err := pt.New(mem, ptAlloc, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	return &env{mem: mem, alloc: ptAlloc, tbl: tbl, port: &memport.Flat{Mem: mem, Latency: 10}}
}

// TestNestedWalkSv39x4: a walker in Sv39x4 mode walks a nested table,
// using the 11-bit root index past Sv39's reach, and rejects GPAs with bits
// 63:41 set without touching memory.
func TestNestedWalkSv39x4(t *testing.T) {
	mem := phys.New(512 * addr.MiB)
	npt, err := pt.New(mem, phys.NewFrameAllocator(addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, false), addr.Sv39x4)
	if err != nil {
		t.Fatal(err)
	}
	gpa := addr.VA(600*addr.GiB + 0x3000)
	if err := npt.Map(gpa, 0x800_0000, perm.R, true); err != nil {
		t.Fatal(err)
	}
	w := New(addr.Sv39x4, &memport.Flat{Mem: mem, Latency: 10}, nil, 0)
	res, err := walk(w, npt.Root(), gpa+0x18, 0)
	if err != nil || res.PageFault || res.AccessFault {
		t.Fatalf("nested walk: %+v, %v", res, err)
	}
	want, _ := npt.TranslateSW(gpa + 0x18)
	if res.Translation != want || res.PTRefs != 3 {
		t.Errorf("walk = %+v (%d refs), oracle = %+v", res.Translation, res.PTRefs, want)
	}
	res, err = walk(w, npt.Root(), 1<<41, 0)
	if err != nil || !res.PageFault || res.PTRefs != 0 {
		t.Errorf("GPA with bit 41 set: %+v, %v; want a page fault with no fetch", res, err)
	}
}

func TestWalkMatchesOracle(t *testing.T) {
	e := newEnv(t)
	va, pa := addr.VA(0x4000_0000), addr.PA(0x800_0000)
	if err := e.tbl.Map(va, pa, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	w := New(addr.Sv39, e.port, nil, 0)
	res, err := walk(w, e.tbl.Root(), va+0x42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageFault || res.AccessFault {
		t.Fatalf("unexpected fault: %+v", res)
	}
	want, _ := e.tbl.TranslateSW(va + 0x42)
	if res.Translation != want {
		t.Errorf("walk = %+v, oracle = %+v", res.Translation, want)
	}
	// Fig. 2-a: Sv39 walk with no isolation = 3 PT references, 0 checks.
	if res.PTRefs != 3 || res.PTCheckRefs != 0 {
		t.Errorf("refs = %d/%d, want 3/0", res.PTRefs, res.PTCheckRefs)
	}
	if res.Latency != 30 {
		t.Errorf("latency = %d, want 30 (3 × 10)", res.Latency)
	}
}

func TestPageFault(t *testing.T) {
	e := newEnv(t)
	w := New(addr.Sv39, e.port, nil, 0)
	res, err := walk(w, e.tbl.Root(), 0x5000_0000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageFault || res.PTRefs != 1 {
		t.Errorf("cold walk should fault at root, after one fetch: %+v", res)
	}
	// Non-canonical VA also faults.
	res, _ = walk(w, e.tbl.Root(), addr.VA(0x40_0000_0000), 0)
	if !res.PageFault {
		t.Error("non-canonical VA must page fault")
	}
}

// pwcHits returns a function that reports the PWC hits w has counted
// since its previous call (the first call: since pwcHits).
func pwcHits(w *Walker) func() uint64 {
	last := w.Counters.Snapshot()["ptw.pwc_hit"]
	return func() uint64 {
		now := w.Counters.Snapshot()["ptw.pwc_hit"]
		n := now - last
		last = now
		return n
	}
}

func TestPWCSkipsLevels(t *testing.T) {
	e := newEnv(t)
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)
	e.tbl.Map(va+addr.PageSize, 0x801_0000, perm.RW, true)
	w := New(addr.Sv39, e.port, nil, 8)
	hits := pwcHits(w)

	r1, _ := walk(w, e.tbl.Root(), va, 0)
	if n := hits(); r1.PTRefs != 3 || n != 0 {
		t.Fatalf("cold walk: %d PWC hits, %+v", n, r1)
	}
	// Adjacent page (TC3-style): shares L2 and L1 PTEs → 2 PWC hits, 1
	// fetch.
	r2, _ := walk(w, e.tbl.Root(), va+addr.PageSize, 100)
	if n := hits(); r2.PTRefs != 1 || n != 2 {
		t.Errorf("adjacent walk: refs=%d pwcHits=%d, want 1/2", r2.PTRefs, n)
	}
	// Exact same page: all three PTEs cached.
	r3, _ := walk(w, e.tbl.Root(), va, 200)
	if n := hits(); r3.PTRefs != 0 || n != 3 {
		t.Errorf("repeat walk: refs=%d pwcHits=%d, want 0/3", r3.PTRefs, n)
	}
	w.FlushPWC()
	r4, _ := walk(w, e.tbl.Root(), va, 300)
	if r4.PTRefs != 3 {
		t.Errorf("after flush: %+v", r4)
	}
}

// TestPWCLRU: the walker's PWC evicts the least recently used PTE word and
// refreshes a re-inserted one in place.
func TestPWCLRU(t *testing.T) {
	c := New(addr.Sv39, nil, nil, 2).PWC
	c.Insert(0x10, 1)
	c.Insert(0x20, 2)
	c.Lookup(0x10)
	c.Insert(0x30, 3) // evict 0x20
	if _, ok := c.Lookup(0x20); ok {
		t.Error("LRU victim should be gone")
	}
	if v, ok := c.Lookup(0x10); !ok || v != 1 {
		t.Error("MRU should survive")
	}
	c.Insert(0x10, 99)
	if v, _ := c.Lookup(0x10); v != 99 {
		t.Error("reinsert must update in place")
	}
}

// TestPWCEvictionOrder fills the cache, touches entries in a known order,
// and asserts that successive inserts evict exactly in LRU order.
func TestPWCEvictionOrder(t *testing.T) {
	c := New(addr.Sv39, nil, nil, 3).PWC
	c.Insert(0x10, 1)
	c.Insert(0x20, 2)
	c.Insert(0x30, 3)
	// Recency order (old→new): 0x10, 0x20, 0x30. Touch 0x10: now 0x20 is LRU.
	c.Lookup(0x10)
	c.Insert(0x40, 4) // evicts 0x20
	if _, ok := c.Lookup(0x20); ok {
		t.Fatal("0x20 should have been evicted first")
	}
	// Recency: 0x30, 0x10, 0x40 (lookup misses don't touch).
	c.Insert(0x50, 5) // evicts 0x30
	if _, ok := c.Lookup(0x30); ok {
		t.Fatal("0x30 should have been evicted second")
	}
	for _, pa := range []addr.PA{0x10, 0x40, 0x50} {
		if _, ok := c.Lookup(uint64(pa)); !ok {
			t.Errorf("%#x should still be cached", uint64(pa))
		}
	}
}

// TestPWCDuplicateInsertRefreshes: re-inserting a present PA must refresh
// its value and recency in place — never store a second copy whose later
// eviction would resurrect a stale value.
func TestPWCDuplicateInsertRefreshes(t *testing.T) {
	c := New(addr.Sv39, nil, nil, 2).PWC
	c.Insert(0x10, 1)
	c.Insert(0x20, 2)
	c.Insert(0x10, 11) // refresh: 0x20 becomes LRU
	c.Insert(0x30, 3)  // must evict 0x20, not a duplicate slot of 0x10
	if _, ok := c.Lookup(0x20); ok {
		t.Fatal("0x20 should have been the eviction victim")
	}
	if v, ok := c.Lookup(0x10); !ok || v != 11 {
		t.Errorf("0x10 = %d,%v; want refreshed value 11", v, ok)
	}
	// Evict 0x10 and make sure no shadow copy with the old value remains.
	c.Lookup(0x30)
	c.Insert(0x40, 4)
	if v, ok := c.Lookup(0x10); ok {
		t.Errorf("0x10 resurrected with value %d: duplicate slot was stored", v)
	}
}

// TestPWCInvalidateClearsMemo: an entry that hit just before FlushPWC must
// not survive it — a probe of the same PA right after the flush must miss —
// and its slot must be reusable.
func TestPWCInvalidateClearsMemo(t *testing.T) {
	w := New(addr.Sv39, nil, nil, 4)
	c := w.PWC
	c.Insert(0x10, 1)
	if _, ok := c.Lookup(0x10); !ok {
		t.Fatal("prime lookup should hit")
	}
	w.FlushPWC()
	if _, ok := c.Lookup(0x10); ok {
		t.Fatal("lookup after FlushPWC must miss")
	}
	// And the slot is genuinely reusable.
	c.Insert(0x10, 2)
	if v, ok := c.Lookup(0x10); !ok || v != 2 {
		t.Errorf("refill = %d,%v; want 2", v, ok)
	}
}

// TestPWCZeroCapacity: a 0-entry PWC is reachable from configuration
// (-pwc 0). The cache itself must no-op on Insert/Lookup instead of
// panicking, and a walker built with it walks every level from memory.
func TestPWCZeroCapacity(t *testing.T) {
	c := assoc.NewCache(0)
	c.Insert(0x10, 1) // must not panic
	if _, ok := c.Lookup(0x10); ok {
		t.Error("zero-capacity PWC must never hit")
	}
	c.FlushAll() // must not panic
	c.Insert(0x20, 2)
	if _, ok := c.Lookup(0x20); ok {
		t.Error("zero-capacity PWC must ignore a second Insert")
	}

	e := newEnv(t)
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)
	w := New(addr.Sv39, e.port, nil, 0)
	w.FlushPWC() // must not panic
	hits := pwcHits(w)
	for i, now := range []uint64{0, 100} {
		res, err := walk(w, e.tbl.Root(), va, now)
		if err != nil {
			t.Fatal(err)
		}
		if n := hits(); res.PTRefs != 3 || n != 0 {
			t.Errorf("walk %d: refs=%d pwcHits=%d, want 3/0", i, res.PTRefs, n)
		}
	}
}

// buildChecker wires an HPMP checker whose table mode protects all of
// memory and returns it plus the pmpt table for permission edits.
func buildChecker(t *testing.T, e *env, region addr.Range) (*hpmp.Checker, *pmpt.Table) {
	t.Helper()
	ptbl, err := pmpt.NewTable(e.mem, e.alloc, region)
	if err != nil {
		t.Fatal(err)
	}
	chk := hpmp.NewSized(pmpt.NewWalker(e.port, nil), pmp.NumEntries)
	if err := chk.SetTable(1, region, ptbl.RootBase()); err != nil {
		t.Fatal(err)
	}
	return chk, ptbl
}

func TestWalkWithPermissionTable(t *testing.T) {
	// Fig. 2-c: each of the 3 PT-page references costs 2 pmpte references.
	e := newEnv(t)
	region := addr.Range{Base: 0, Size: 256 * addr.MiB}
	chk, ptbl := buildChecker(t, e, region)
	// Grant the PT region read permission in the permission table.
	if err := ptbl.SetRangePerm(addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, perm.RW); err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)

	w := New(addr.Sv39, e.port, chk, 0)
	res, err := walk(w, e.tbl.Root(), va, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageFault || res.AccessFault {
		t.Fatalf("fault: %+v", res)
	}
	if res.PTRefs != 3 || res.PTCheckRefs != 6 {
		t.Errorf("refs = %d PT + %d check, want 3 + 6 (Fig. 2-c)", res.PTRefs, res.PTCheckRefs)
	}
}

func TestWalkWithSegmentProtectedPTPages(t *testing.T) {
	// Fig. 4: PT pages covered by a segment → 3 PT refs, 0 check refs.
	e := newEnv(t)
	region := addr.Range{Base: 0, Size: 256 * addr.MiB}
	chk, _ := buildChecker(t, e, region)
	// Entry 0 (higher priority than the table in entry 1): segment over the
	// contiguous PT region.
	if err := chk.SetSegment(0, addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)

	w := New(addr.Sv39, e.port, chk, 0)
	res, err := walk(w, e.tbl.Root(), va, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageFault || res.AccessFault {
		t.Fatalf("fault: %+v", res)
	}
	if res.PTRefs != 3 || res.PTCheckRefs != 0 {
		t.Errorf("refs = %d PT + %d check, want 3 + 0 (Fig. 4)", res.PTRefs, res.PTCheckRefs)
	}
}

func TestAccessFaultWhenPTPageDenied(t *testing.T) {
	e := newEnv(t)
	region := addr.Range{Base: 0, Size: 256 * addr.MiB}
	chk, _ := buildChecker(t, e, region)
	// Permission table left all-invalid: the root PT page check must fail.
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)

	w := New(addr.Sv39, e.port, chk, 0)
	res, err := walk(w, e.tbl.Root(), va, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AccessFault || res.PTCheckRefs == 0 {
		t.Errorf("want access fault on the root PT page's check: %+v", res)
	}
	if res.PTRefs != 0 {
		t.Error("denied PTE fetch must not read memory")
	}
}

func TestSuperpageWalk(t *testing.T) {
	e := newEnv(t)
	// Hand-install a 2 MiB superpage at L1: map VA 0x4000_0000 → PA
	// 0x1000_0000 (2 MiB aligned).
	root := e.tbl.Root()
	// L2 entry → fresh L1 table.
	l1page, _ := e.alloc.Alloc()
	e.mem.ZeroPage(l1page)
	va := addr.VA(0x4000_0000)
	vpn2 := addr.Sv39.VPN(va, 2)
	e.mem.Write64(root+addr.PA(vpn2*8), uint64(pt.MakePointer(l1page)))
	vpn1 := addr.Sv39.VPN(va, 1)
	e.mem.Write64(l1page+addr.PA(vpn1*8), uint64(pt.MakeLeaf(0x1000_0000, perm.RX, false)))

	w := New(addr.Sv39, e.port, nil, 0)
	res, err := walk(w, root, va+0x12_3456, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageFault {
		t.Fatalf("fault: %+v", res)
	}
	if res.Translation.PA != 0x1012_3456 {
		t.Errorf("superpage PA = %#x, want 0x10123456", uint64(res.Translation.PA))
	}
	if res.PTRefs != 2 {
		t.Errorf("superpage walk refs = %d, want 2", res.PTRefs)
	}
}

// TestPageFaultCounterNonCanonical: a non-canonical VA must both set
// PageFault and bump ptw.page_fault — the counter used to skew low here.
func TestPageFaultCounterNonCanonical(t *testing.T) {
	e := newEnv(t)
	w := New(addr.Sv39, e.port, nil, 0)
	res, err := walk(w, e.tbl.Root(), addr.VA(0x40_0000_0000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageFault || res.PTRefs != 0 {
		t.Fatalf("non-canonical VA must fault before any fetch: %+v", res)
	}
	if got := w.Counters.Snapshot()["ptw.page_fault"]; got != 1 {
		t.Errorf("ptw.page_fault = %d, want 1", got)
	}
}

// TestPageFaultCounterPointerAtLevel0: a level-0 entry that is valid but
// not a leaf (a pointer where only leaves are legal) must fault AND count.
func TestPageFaultCounterPointerAtLevel0(t *testing.T) {
	e := newEnv(t)
	root := e.tbl.Root()
	va := addr.VA(0x4000_0000)
	l1page, _ := e.alloc.Alloc()
	e.mem.ZeroPage(l1page)
	l0page, _ := e.alloc.Alloc()
	e.mem.ZeroPage(l0page)
	bogus, _ := e.alloc.Alloc()
	e.mem.Write64(root+addr.PA(addr.Sv39.VPN(va, 2)*8), uint64(pt.MakePointer(l1page)))
	e.mem.Write64(l1page+addr.PA(addr.Sv39.VPN(va, 1)*8), uint64(pt.MakePointer(l0page)))
	// The malformed part: the leaf-level entry is itself a pointer.
	e.mem.Write64(l0page+addr.PA(addr.Sv39.VPN(va, 0)*8), uint64(pt.MakePointer(bogus)))

	w := New(addr.Sv39, e.port, nil, 0)
	res, err := walk(w, root, va, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageFault || res.PTRefs != 3 {
		t.Fatalf("pointer at level 0 must page-fault after all three fetches: %+v", res)
	}
	if got := w.Counters.Snapshot()["ptw.page_fault"]; got != 1 {
		t.Errorf("ptw.page_fault = %d, want 1", got)
	}
}

// TestPageFaultCounterMatchesResults: across every fault shape the walker
// can produce, the counter must equal the number of PageFault results.
func TestPageFaultCounterMatchesResults(t *testing.T) {
	e := newEnv(t)
	va := addr.VA(0x4000_0000)
	e.tbl.Map(va, 0x800_0000, perm.RW, true)
	w := New(addr.Sv39, e.port, nil, 0)

	faults := 0
	for _, probe := range []addr.VA{
		va,                     // ok
		0x5000_0000,            // invalid root entry
		addr.VA(0x40_0000_000), // unmapped but canonical
		addr.VA(0x7f_ffff_f000),
	} {
		res, err := walk(w, e.tbl.Root(), probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.PageFault {
			faults++
		}
	}
	// Non-canonical probes too.
	for _, probe := range []addr.VA{0x40_0000_0000, addr.VA(1) << 62} {
		res, err := walk(w, e.tbl.Root(), probe, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.PageFault {
			t.Fatalf("probe %v should fault", probe)
		}
		faults++
	}
	if got := w.Counters.Snapshot()["ptw.page_fault"]; got != uint64(faults) {
		t.Errorf("ptw.page_fault = %d, want %d (one per PageFault result)", got, faults)
	}
}

// tracedWalks runs a fixed sequence of walks through a fresh PWC-equipped,
// permission-table-checked walker — a cold walk, a PWC-hit repeat, an
// adjacent page, a non-canonical VA, a level-0 pointer PTE, and a walk whose
// root PT page the checker denies — with tr attached to the walker (nil for
// an untraced run). It returns every Result, the walker and checker counter
// snapshots, and how many events each walk emitted.
func tracedWalks(t *testing.T, tr *obs.Tracer) (results []Result, counters string, events []int) {
	t.Helper()
	e := newEnv(t)
	chk, ptbl := buildChecker(t, e, addr.Range{Base: 0, Size: 256 * addr.MiB})
	if err := ptbl.SetRangePerm(addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}, perm.RW); err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x4000_0000)
	for i := 0; i < 2; i++ {
		if err := e.tbl.Map(va+addr.VA(i)*addr.PageSize, 0x800_0000+addr.PA(i)*addr.PageSize, perm.RW, true); err != nil {
			t.Fatal(err)
		}
	}
	// A level-0 entry that is a pointer, where only leaves are legal.
	ptrVA := addr.VA(0x8000_0000)
	l1page, _ := e.alloc.Alloc()
	e.mem.ZeroPage(l1page)
	l0page, _ := e.alloc.Alloc()
	e.mem.ZeroPage(l0page)
	bogus, _ := e.alloc.Alloc()
	e.mem.Write64(e.tbl.Root()+addr.PA(addr.Sv39.VPN(ptrVA, 2)*8), uint64(pt.MakePointer(l1page)))
	e.mem.Write64(l1page+addr.PA(addr.Sv39.VPN(ptrVA, 1)*8), uint64(pt.MakePointer(l0page)))
	e.mem.Write64(l0page+addr.PA(addr.Sv39.VPN(ptrVA, 0)*8), uint64(pt.MakePointer(bogus)))
	// A second page table whose pages the permission table never grants.
	denied, err := pt.New(e.mem, phys.NewFrameAllocator(addr.Range{Base: 0x80_0000, Size: 4 * addr.MiB}, false), addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	if err := denied.Map(va, 0x800_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}

	w := New(addr.Sv39, e.port, chk, 8)
	w.Trace = tr
	now := uint64(0)
	for _, probe := range []struct {
		root addr.PA
		va   addr.VA
	}{
		{e.tbl.Root(), va},                      // cold: three fetches, three checks
		{e.tbl.Root(), va},                      // every level a PWC hit
		{e.tbl.Root(), va + addr.PageSize},      // two PWC hits, one fetch
		{e.tbl.Root(), addr.VA(1) << 62},        // non-canonical: no fetch
		{e.tbl.Root(), ptrVA},                   // pointer at level 0
		{denied.Root(), va},                     // root PT page denied
		{e.tbl.Root(), addr.VA(0x3f_ffff_f000)}, // invalid root entry
	} {
		before := 0
		if tr != nil {
			before = tr.Kept()
		}
		res, err := walk(w, probe.root, probe.va, now)
		if err != nil {
			t.Fatal(err)
		}
		now += res.Latency + 1
		results = append(results, res)
		if tr != nil {
			events = append(events, tr.Kept()-before)
		}
	}
	return results, w.Counters.String() + " " + chk.Counters.String() + " " + chk.Walker.Counters.String(), events
}

// TestTraceIsInert: the walk loop emits one KindPTEFetch per level visited
// when a tracer is attached, and attaching it changes nothing else — the
// same walks give identical Results and counters with and without it.
func TestTraceIsInert(t *testing.T) {
	plain, plainCounters, _ := tracedWalks(t, nil)
	tr := obs.NewTracer(1024, 1)
	traced, tracedCounters, events := tracedWalks(t, tr)

	if len(plain) != len(traced) {
		t.Fatalf("%d untraced results, %d traced", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Errorf("walk %d differs:\n  untraced: %+v\n  traced:   %+v", i, plain[i], traced[i])
		}
	}
	if plainCounters != tracedCounters {
		t.Errorf("counters differ:\n  untraced: %s\n  traced:   %s", plainCounters, tracedCounters)
	}

	// Levels visited per walk, and the outcome each walk must have, so the
	// sequence really covers the shapes it names.
	wantLevels := []int{3, 3, 3, 0, 3, 1, 1}
	r := traced
	if r[1].PTRefs != 0 || r[2].PTRefs != 1 || !r[3].PageFault || !r[4].PageFault || r[4].PTRefs != 3 ||
		!r[5].AccessFault || r[5].PTRefs != 0 || !r[6].PageFault {
		t.Fatalf("walk sequence lost a case: %+v", r)
	}
	evs := tr.Events()
	for i, want := range wantLevels {
		if events[i] != want {
			t.Fatalf("walk %d emitted %d events, want %d (one per level visited)", i, events[i], want)
		}
		for j, ev := range evs[:want] {
			if ev.Kind != obs.KindPTEFetch || int(ev.Level) != 2-j {
				t.Errorf("walk %d event %d: kind %v level %d, want KindPTEFetch at level %d", i, j, ev.Kind, ev.Level, 2-j)
			}
		}
		evs = evs[want:]
	}
}

// walk is WalkInto returning the Result.
func walk(w *Walker, root addr.PA, va addr.VA, now uint64) (Result, error) {
	var res Result
	err := w.WalkInto(root, va, now, &res)
	return res, err
}
