package pmpt

import (
	"testing"
	"testing/quick"

	"hpmp/internal/addr"
	"hpmp/internal/memport"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
)

func TestAddrRegRoundTrip(t *testing.T) {
	v, err := EncodeAddrReg(0x8020_0000, Mode2Level)
	if err != nil {
		t.Fatal(err)
	}
	base, mode := DecodeAddrReg(v)
	if base != 0x8020_0000 || mode != Mode2Level {
		t.Errorf("round trip: base=%v mode=%v", base, mode)
	}
	if _, err := EncodeAddrReg(0x8020_0100, Mode2Level); err == nil {
		t.Error("unaligned root base must fail")
	}
}

func TestRootPTE(t *testing.T) {
	p := MakeRootPointer(0x9000_0000)
	if !p.Valid() || p.IsHuge() || p.LeafBase() != 0x9000_0000 {
		t.Errorf("pointer pmpte wrong: %v %v %v", p.Valid(), p.IsHuge(), p.LeafBase())
	}
	h := MakeRootHuge(perm.RW)
	if !h.Valid() || !h.IsHuge() || h.Perm() != perm.RW {
		t.Errorf("huge pmpte wrong: %v %v %v", h.Valid(), h.IsHuge(), h.Perm())
	}
	var inv RootPTE
	if inv.Valid() {
		t.Error("zero pmpte must be invalid")
	}
}

func TestLeafNibbles(t *testing.T) {
	var l LeafPTE
	l = l.WithPagePerm(0, perm.R).WithPagePerm(7, perm.RWX).WithPagePerm(15, perm.RW)
	if l.PagePerm(0) != perm.R || l.PagePerm(7) != perm.RWX || l.PagePerm(15) != perm.RW {
		t.Errorf("nibble round trip wrong: %v %v %v", l.PagePerm(0), l.PagePerm(7), l.PagePerm(15))
	}
	if l.PagePerm(1) != perm.None {
		t.Error("untouched nibble must be None")
	}
	u := UniformLeaf(perm.RX)
	for i := 0; i < PagesPerLeafEntry; i++ {
		if u.PagePerm(i) != perm.RX {
			t.Fatalf("uniform leaf nibble %d = %v", i, u.PagePerm(i))
		}
	}
}

// UniformLeaf agrees with setting all 16 nibbles one by one, for every
// perm.Perm value (bits above the nibble included).
func TestUniformLeafMatchesPerPage(t *testing.T) {
	for v := 0; v < 256; v++ {
		p := perm.Perm(v)
		var want LeafPTE
		for i := 0; i < PagesPerLeafEntry; i++ {
			want = want.WithPagePerm(i, p)
		}
		if got := UniformLeaf(p); got != want {
			t.Errorf("UniformLeaf(%#x) = %#x, per-page loop gives %#x", v, uint64(got), uint64(want))
		}
	}
}

// Property: WithPagePerm(i, p) sets nibble i and leaves all others alone.
func TestLeafNibbleIsolationQuick(t *testing.T) {
	f := func(raw uint64, idx uint8, pbits uint8) bool {
		i := int(idx % PagesPerLeafEntry)
		p := perm.Perm(pbits & 0x7)
		before := LeafPTE(raw)
		after := before.WithPagePerm(i, p)
		if after.PagePerm(i) != p {
			return false
		}
		for j := 0; j < PagesPerLeafEntry; j++ {
			if j != i && after.PagePerm(j) != before.PagePerm(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitOffset(t *testing.T) {
	// offset = off1=3, off0=5, pageIdx=9, pageOff=0x123
	off := uint64(3)<<25 | uint64(5)<<16 | uint64(9)<<12 | 0x123
	off1, off0, pi := SplitOffset(off)
	if off1 != 3 || off0 != 5 || pi != 9 {
		t.Errorf("SplitOffset = (%d,%d,%d)", off1, off0, pi)
	}
}

func TestGeometry(t *testing.T) {
	if RootEntrySpan != 32*addr.MiB {
		t.Errorf("root pmpte span = %d, want 32 MiB (paper §4.3)", RootEntrySpan)
	}
	if MaxRegion != 16*addr.GiB {
		t.Errorf("2-level reach = %d, want 16 GiB (paper §4.3)", MaxRegion)
	}
	if LeafEntrySpan != 64*addr.KiB {
		t.Errorf("leaf pmpte span = %d, want 64 KiB", LeafEntrySpan)
	}
}

func testTable(t *testing.T, regionSize uint64) (*Table, *phys.Memory) {
	t.Helper()
	mem := phys.New(512 * addr.MiB)
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0x100000, Size: 4 * addr.MiB}, false)
	tbl, err := NewTable(mem, alloc, addr.Range{Base: 0x1000_0000, Size: regionSize})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mem
}

func TestTableSetAndLookup(t *testing.T) {
	tbl, _ := testTable(t, 64*addr.MiB)
	pa := tbl.Region().Base + 5*addr.PageSize
	if err := tbl.SetPagePerm(pa, perm.RW); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.LookupSW(pa)
	if err != nil || got != perm.RW {
		t.Errorf("LookupSW = %v, %v; want rw-", got, err)
	}
	// Neighbouring page untouched.
	got, _ = tbl.LookupSW(pa + addr.PageSize)
	if got != perm.None {
		t.Errorf("neighbour perm = %v, want none", got)
	}
	// Outside the region errors.
	if _, err := tbl.LookupSW(0x4000_0000); err == nil {
		t.Error("lookup outside region must fail")
	}
}

func TestTableHugeRange(t *testing.T) {
	tbl, _ := testTable(t, 128*addr.MiB)
	// A 32 MiB aligned range becomes one huge root entry: table stays at 1
	// page (root only).
	r := addr.Range{Base: tbl.Region().Base + 32*addr.MiB, Size: 32 * addr.MiB}
	if err := tbl.SetRangePerm(r, perm.RWX); err != nil {
		t.Fatal(err)
	}
	if tbl.TablePages() != 1 {
		t.Errorf("huge range should not allocate leaves; pages = %d", tbl.TablePages())
	}
	got, _ := tbl.LookupSW(r.Base + 12345*8)
	if got != perm.RWX {
		t.Errorf("huge lookup = %v", got)
	}
	// Punching a single page through the huge entry demotes it to a leaf
	// table preserving surrounding permissions.
	hole := r.Base + 4*addr.PageSize
	if err := tbl.SetPagePerm(hole, perm.None); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.LookupSW(hole); got != perm.None {
		t.Errorf("hole perm = %v, want none", got)
	}
	if got, _ := tbl.LookupSW(hole + addr.PageSize); got != perm.RWX {
		t.Errorf("page after hole = %v, want rwx (huge demotion must preserve)", got)
	}
}

func TestTableRegionTooLarge(t *testing.T) {
	mem := phys.New(16 * addr.MiB)
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0, Size: addr.MiB}, false)
	if _, err := NewTable(mem, alloc, addr.Range{Base: 0, Size: 17 * addr.GiB}); err == nil {
		t.Error("region beyond 16 GiB must be rejected")
	}
}

func TestWalkerMatchesSoftware(t *testing.T) {
	tbl, mem := testTable(t, 64*addr.MiB)
	base := tbl.Region().Base
	tbl.SetPagePerm(base, perm.R)
	tbl.SetPagePerm(base+addr.PageSize, perm.RW)
	tbl.SetRangePerm(addr.Range{Base: base + addr.MiB, Size: 2 * addr.MiB}, perm.RX)

	w := NewWalker(&memport.Flat{Mem: mem, Latency: 10}, nil)
	for _, pa := range []addr.PA{base, base + addr.PageSize, base + addr.MiB, base + 2*addr.MiB, base + 10*addr.MiB} {
		want, err := tbl.LookupSW(pa)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Walk(tbl.RootBase(), tbl.Region(), pa, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Perm != want {
			t.Errorf("walk(%v) = %v, software says %v", pa, got.Perm, want)
		}
	}
}

// Property: for arbitrary page permissions, the hardware walker always
// agrees with the software oracle.
func TestWalkerOracleQuick(t *testing.T) {
	tbl, mem := testTable(t, 64*addr.MiB)
	w := NewWalker(&memport.Flat{Mem: mem, Latency: 1}, nil)
	f := func(pageIdx uint16, pbits uint8) bool {
		page := uint64(pageIdx) % (64 * addr.MiB / addr.PageSize)
		pa := tbl.Region().Base + addr.PA(page*addr.PageSize)
		p := perm.Perm(pbits & 0x7)
		if err := tbl.SetPagePerm(pa, p); err != nil {
			return false
		}
		sw, err := tbl.LookupSW(pa)
		if err != nil {
			return false
		}
		hw, err := w.Walk(tbl.RootBase(), tbl.Region(), pa, 0)
		return err == nil && hw.Perm == sw && hw.Valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWalkRefCounts(t *testing.T) {
	tbl, mem := testTable(t, 96*addr.MiB)
	base := tbl.Region().Base
	tbl.SetPagePerm(base, perm.RW)
	w := NewWalker(&memport.Flat{Mem: mem, Latency: 7}, nil)

	// Two-level walk: exactly 2 memory references (the paper's "2 more
	// memory references per checked address").
	res, err := w.Walk(tbl.RootBase(), tbl.Region(), base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs != 2 || res.Latency != 14 {
		t.Errorf("2-level walk: refs=%d lat=%d, want 2/14", res.MemRefs, res.Latency)
	}

	// Huge root entry: 1 reference.
	huge := addr.Range{Base: base + 32*addr.MiB, Size: 32 * addr.MiB}
	tbl.SetRangePerm(huge, perm.R)
	res, err = w.Walk(tbl.RootBase(), tbl.Region(), huge.Base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRefs != 1 {
		t.Errorf("huge walk refs = %d, want 1", res.MemRefs)
	}

	// Untouched root index (64 MiB offset → root index 2): invalid root
	// pmpte, 1 reference, not valid.
	res, err = w.Walk(tbl.RootBase(), tbl.Region(), base+64*addr.MiB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid || res.MemRefs != 1 {
		t.Errorf("invalid walk: valid=%v refs=%d", res.Valid, res.MemRefs)
	}
}

func TestWalkerCache(t *testing.T) {
	tbl, mem := testTable(t, 64*addr.MiB)
	base := tbl.Region().Base
	tbl.SetPagePerm(base, perm.RW)
	c := NewWalkerCache(8)
	w := NewWalker(&memport.Flat{Mem: mem, Latency: 7}, c)

	hits := func() uint64 { return w.Counters.Snapshot()["pmptw.cache_hit"] }
	r1, _ := w.Walk(tbl.RootBase(), tbl.Region(), base, 0)
	if r1.MemRefs != 2 || hits() != 0 {
		t.Fatalf("cold walk: refs=%d hits=%d", r1.MemRefs, hits())
	}
	r2, _ := w.Walk(tbl.RootBase(), tbl.Region(), base, 100)
	if r2.MemRefs != 0 || hits() != 2 {
		t.Errorf("warm walk should be fully cached: refs=%d hits=%d", r2.MemRefs, hits())
	}
	if r2.Latency != 0 {
		t.Errorf("cached walk latency = %d, want 0", r2.Latency)
	}
	if r2.Perm != perm.RW {
		t.Errorf("cached walk perm = %v", r2.Perm)
	}
	c.FlushAll()
	r3, _ := w.Walk(tbl.RootBase(), tbl.Region(), base, 200)
	if r3.MemRefs != 2 {
		t.Errorf("after FlushAll, walk must re-fetch: refs=%d", r3.MemRefs)
	}
}

func TestWalkerCacheLRU(t *testing.T) {
	c := NewWalkerCache(2)
	c.Insert(0x100, 1)
	c.Insert(0x200, 2)
	c.Lookup(0x100)    // 0x100 MRU
	c.Insert(0x300, 3) // evicts 0x200
	if _, ok := c.Lookup(0x200); ok {
		t.Error("LRU entry should be evicted")
	}
	if v, ok := c.Lookup(0x100); !ok || v != 1 {
		t.Error("MRU entry should survive")
	}
	// Reinsert of an existing pa updates in place (no duplicate).
	c.Insert(0x100, 42)
	if v, _ := c.Lookup(0x100); v != 42 {
		t.Error("Insert must update existing entry")
	}
}

// TestWalkerCacheEvictionOrder fills the cache, touches entries in a
// known order, and asserts successive inserts evict exactly in LRU order.
func TestWalkerCacheEvictionOrder(t *testing.T) {
	c := NewWalkerCache(3)
	c.Insert(0x100, 1)
	c.Insert(0x200, 2)
	c.Insert(0x300, 3)
	c.Lookup(0x100)    // recency old→new: 0x200, 0x300, 0x100
	c.Insert(0x400, 4) // evicts 0x200
	if _, ok := c.Lookup(0x200); ok {
		t.Fatal("0x200 should have been evicted first")
	}
	c.Insert(0x500, 5) // evicts 0x300
	if _, ok := c.Lookup(0x300); ok {
		t.Fatal("0x300 should have been evicted second")
	}
	for _, pa := range []addr.PA{0x100, 0x400, 0x500} {
		if _, ok := c.Lookup(uint64(pa)); !ok {
			t.Errorf("%#x should still be cached", uint64(pa))
		}
	}
}

// TestWalkerCacheDuplicateInsertRefreshes: re-inserting a present pmpte
// must refresh it in place; a later eviction must not resurrect a stale
// shadow copy.
func TestWalkerCacheDuplicateInsertRefreshes(t *testing.T) {
	c := NewWalkerCache(2)
	c.Insert(0x100, 1)
	c.Insert(0x200, 2)
	c.Insert(0x100, 11) // refresh: 0x200 becomes LRU
	c.Insert(0x300, 3)  // must evict 0x200
	if _, ok := c.Lookup(0x200); ok {
		t.Fatal("0x200 should have been the eviction victim")
	}
	if v, ok := c.Lookup(0x100); !ok || v != 11 {
		t.Errorf("0x100 = %d,%v; want refreshed value 11", v, ok)
	}
	c.Lookup(0x300)
	c.Insert(0x400, 4) // evicts 0x100
	if v, ok := c.Lookup(0x100); ok {
		t.Errorf("0x100 resurrected with value %d: duplicate slot was stored", v)
	}
}

// TestWalkerCacheInvalidateClearsMemo: an entry that hit just before
// FlushAll must not survive it, and its slot must be reusable.
func TestWalkerCacheInvalidateClearsMemo(t *testing.T) {
	c := NewWalkerCache(4)
	c.Insert(0x100, 1)
	if _, ok := c.Lookup(0x100); !ok {
		t.Fatal("prime lookup should hit")
	}
	c.FlushAll()
	if _, ok := c.Lookup(0x100); ok {
		t.Fatal("lookup after FlushAll must miss")
	}
	c.Insert(0x100, 2)
	if v, ok := c.Lookup(0x100); !ok || v != 2 {
		t.Errorf("refill = %d,%v; want 2", v, ok)
	}
}

// TestWalkerCacheZeroCapacity: a zero-capacity cache is legal
// (NewWalkerCache takes any count); Insert/Lookup must no-op rather than
// panic.
func TestWalkerCacheZeroCapacity(t *testing.T) {
	c := NewWalkerCache(0)
	c.Insert(0x100, 1) // must not panic
	if _, ok := c.Lookup(0x100); ok {
		t.Error("zero-capacity cache must never hit")
	}
	c.FlushAll() // must not panic
	// A walker over a zero-capacity (but attached) cache still walks
	// correctly — every fetch just goes to memory.
	tbl, mem := testTable(t, 64*addr.MiB)
	base := tbl.Region().Base
	tbl.SetPagePerm(base, perm.RW)
	w := NewWalker(&memport.Flat{Mem: mem, Latency: 7}, c)
	for i, now := range []uint64{0, 100} {
		res, err := w.Walk(tbl.RootBase(), tbl.Region(), base, now)
		if err != nil {
			t.Fatal(err)
		}
		if hits := w.Counters.Snapshot()["pmptw.cache_hit"]; res.MemRefs != 2 || hits != 0 || res.Perm != perm.RW {
			t.Errorf("zero-capacity walk %d: refs=%d hits=%d perm=%v, want 2/0/RW", i, res.MemRefs, hits, res.Perm)
		}
	}
}

func TestWalkOutsideRegionFails(t *testing.T) {
	tbl, mem := testTable(t, 64*addr.MiB)
	w := NewWalker(&memport.Flat{Mem: mem, Latency: 1}, nil)
	if _, err := w.Walk(tbl.RootBase(), tbl.Region(), 0x9999_0000, 0); err == nil {
		t.Error("walk outside the region must error")
	}
}

func TestTableAccessors(t *testing.T) {
	tbl, _ := testTable(t, 64*addr.MiB)
	if !tbl.Covers(tbl.Region().Base) || tbl.Covers(tbl.Region().End()) {
		t.Error("Covers boundaries wrong")
	}
	if tbl.TablePages() != 1 {
		t.Errorf("fresh table pages = %d, want 1 (root only)", tbl.TablePages())
	}
	tbl.SetPagePerm(tbl.Region().Base, perm.R)
	if tbl.TablePages() != 2 {
		t.Errorf("after one page: %d pages, want 2", tbl.TablePages())
	}
}

func TestSetRangePermValidation(t *testing.T) {
	tbl, _ := testTable(t, 64*addr.MiB)
	if err := tbl.SetRangePerm(addr.Range{Base: tbl.Region().Base + 1, Size: addr.PageSize}, perm.R); err == nil {
		t.Error("unaligned range must fail")
	}
	if err := tbl.SetRangePermPaged(addr.Range{Base: tbl.Region().Base, Size: 100}, perm.R); err == nil {
		t.Error("sub-page range must fail")
	}
	if err := tbl.SetRangePerm(addr.Range{Base: tbl.Region().End(), Size: addr.PageSize}, perm.R); err == nil {
		t.Error("out-of-region range must fail")
	}
	if err := tbl.SetPagePerm(0x4000_0000, perm.R); err == nil {
		t.Error("out-of-region page must fail")
	}
	// A paged range that runs past the region writes nothing.
	over := addr.Range{Base: tbl.Region().End() - 40*addr.MiB, Size: 41 * addr.MiB}
	if err := tbl.SetRangePermPaged(over, perm.R); err == nil {
		t.Error("paged range past the region must fail")
	}
	if tbl.TablePages() != 1 {
		t.Errorf("failed paged range left %d table pages, want 1", tbl.TablePages())
	}
}

func TestTableAllocExhaustion(t *testing.T) {
	mem := phys.New(512 * addr.MiB)
	tiny := phys.NewFrameAllocator(addr.Range{Base: 0x100000, Size: addr.PageSize}, false)
	tbl, err := NewTable(mem, tiny, addr.Range{Base: 0x1000_0000, Size: 64 * addr.MiB})
	if err != nil {
		t.Fatal(err)
	}
	// The root consumed the only frame; the first leaf allocation fails.
	if err := tbl.SetPagePerm(tbl.Region().Base, perm.R); err == nil {
		t.Error("exhausted table allocator must fail")
	}
	if _, err := NewTable(mem, tiny, addr.Range{Base: 0, Size: addr.PageSize}); err == nil {
		t.Error("NewTable with no frames must fail")
	}
	// Unaligned regions rejected at construction.
	big := phys.NewFrameAllocator(addr.Range{Base: 0x200000, Size: addr.MiB}, false)
	if _, err := NewTable(mem, big, addr.Range{Base: 0x123, Size: addr.PageSize}); err == nil {
		t.Error("unaligned region must fail")
	}
}

func TestDeepTableHugeConflict(t *testing.T) {
	mem := phys.New(64 * addr.GiB)
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 64 * addr.MiB}, false)
	tbl, err := NewTableMode(mem, alloc, addr.Range{Base: 0, Size: 32 * addr.GiB}, Mode3Level)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize a sub-table at level 1, then a level-1-aligned huge grant
	// over the same span must fall through to leaf writes, not clobber it.
	if err := tbl.SetPagePerm(0, perm.R); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetRangePerm(addr.Range{Base: 0, Size: 32 * addr.MiB}, perm.RW); err != nil {
		t.Fatal(err)
	}
	// Both the original page and the rest of the span read rw- now.
	if got, _ := tbl.LookupSW(0); got != perm.RW {
		t.Errorf("page 0 = %v", got)
	}
	if got, _ := tbl.LookupSW(16 * addr.MiB); got != perm.RW {
		t.Errorf("mid-span = %v", got)
	}
}
