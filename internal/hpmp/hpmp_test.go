package hpmp

import (
	"testing"
	"testing/quick"

	"hpmp/internal/addr"
	"hpmp/internal/memport"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmp"
	"hpmp/internal/pmpt"
)

type env struct {
	mem   *phys.Memory
	alloc *phys.FrameAllocator
	chk   *Checker
}

func newEnv(t *testing.T) *env {
	t.Helper()
	mem := phys.New(512 * addr.MiB)
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 8 * addr.MiB}, false)
	w := pmpt.NewWalker(&memport.Flat{Mem: mem, Latency: 10}, nil)
	return &env{mem: mem, alloc: alloc, chk: NewSized(w, pmp.NumEntries)}
}

func (e *env) newTable(t *testing.T, region addr.Range) *pmpt.Table {
	t.Helper()
	tbl, err := pmpt.NewTable(e.mem, e.alloc, region)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSegmentModeZeroRefs(t *testing.T) {
	e := newEnv(t)
	region := addr.Range{Base: 0x800_0000, Size: 16 * addr.MiB}
	if err := e.chk.SetSegment(0, region, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	r, err := e.chk.Check(0x800_1000, 8, perm.Read, perm.S, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Allowed || r.TableMode || r.MemRefs != 0 || r.Latency != 0 {
		t.Errorf("segment check must be free: %+v", r)
	}
	// And Exec must be denied by an RW segment.
	r, _ = e.chk.Check(0x800_1000, 8, perm.Fetch, perm.S, 0)
	if r.Allowed {
		t.Errorf("rw- segment must deny fetch: %+v", r)
	}
}

func TestTableModeTwoRefs(t *testing.T) {
	e := newEnv(t)
	region := addr.Range{Base: 0x1000_0000, Size: 64 * addr.MiB}
	tbl := e.newTable(t, region)
	pa := region.Base + 3*addr.PageSize
	if err := tbl.SetPagePerm(pa, perm.RW); err != nil {
		t.Fatal(err)
	}
	if err := e.chk.SetTable(1, region, tbl.RootBase()); err != nil {
		t.Fatal(err)
	}
	r, err := e.chk.Check(pa, 8, perm.Write, perm.S, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Allowed || !r.TableMode || r.Entry != 1 {
		t.Errorf("table-mode check wrong: %+v", r)
	}
	// The paper's cost model: a 2-level table costs exactly 2 extra memory
	// references per checked address.
	if r.MemRefs != 2 || r.Latency != 20 {
		t.Errorf("table walk must cost 2 refs: %+v", r)
	}
	// Unset page in same region is denied for S-mode.
	r, _ = e.chk.Check(pa+addr.PageSize, 8, perm.Read, perm.S, 0)
	if r.Allowed {
		t.Errorf("page with no table permission must be denied: %+v", r)
	}
}

func TestSegmentAndTableCoexist(t *testing.T) {
	// The HPMP configuration of Fig. 5: entry 0 segment, entries 1+2 a
	// table, later entries segments again.
	e := newEnv(t)
	segRegion := addr.Range{Base: 0x400_0000, Size: 4 * addr.MiB} // PT pages
	tblRegion := addr.Range{Base: 0x1000_0000, Size: 256 * addr.MiB}
	tbl := e.newTable(t, tblRegion)
	tbl.SetRangePerm(addr.Range{Base: tblRegion.Base, Size: addr.MiB}, perm.RW)

	if err := e.chk.SetSegment(0, segRegion, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	if err := e.chk.SetTable(1, tblRegion, tbl.RootBase()); err != nil {
		t.Fatal(err)
	}
	// Segment hit: free.
	r, _ := e.chk.Check(segRegion.Base, 8, perm.Read, perm.S, 0)
	if !r.Allowed || r.MemRefs != 0 {
		t.Errorf("segment: %+v", r)
	}
	// Table hit: 2 refs.
	r, _ = e.chk.Check(tblRegion.Base, 8, perm.Read, perm.S, 0)
	if !r.Allowed || r.MemRefs != 2 {
		t.Errorf("table: %+v", r)
	}
}

func TestPriorityLowestEntryWins(t *testing.T) {
	// Segment in entry 0 covers a subrange of a table in entries 1+2 —
	// the cache-like management Penglai-HPMP uses (§5). The segment must
	// win and cost zero refs.
	e := newEnv(t)
	tblRegion := addr.Range{Base: 0x1000_0000, Size: 64 * addr.MiB}
	tbl := e.newTable(t, tblRegion)
	tbl.SetRangePerm(tblRegion, perm.R) // table says read-only everywhere

	fast := addr.Range{Base: 0x1000_0000, Size: 4 * addr.MiB}
	if err := e.chk.SetSegment(0, fast, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	if err := e.chk.SetTable(1, tblRegion, tbl.RootBase()); err != nil {
		t.Fatal(err)
	}
	r, _ := e.chk.Check(fast.Base+0x1000, 8, perm.Write, perm.S, 0)
	if !r.Allowed || r.TableMode || r.MemRefs != 0 || r.Entry != 0 {
		t.Errorf("segment must shadow table: %+v", r)
	}
	// Outside the fast window the table rules (write denied).
	r, _ = e.chk.Check(tblRegion.Base+32*addr.MiB, 8, perm.Write, perm.S, 0)
	if r.Allowed || !r.TableMode {
		t.Errorf("table region must deny write: %+v", r)
	}
}

func TestLastEntryCannotBeTable(t *testing.T) {
	e := newEnv(t)
	region := addr.Range{Base: 0x1000_0000, Size: 32 * addr.MiB}
	if err := e.chk.SetTable(pmp.NumEntries-1, region, 0x10_0000); err == nil {
		t.Error("entry 15 must not accept table mode (§4.3)")
	}
}

func TestSuccessorEntryDoesNotMatch(t *testing.T) {
	e := newEnv(t)
	region := addr.Range{Base: 0x1000_0000, Size: 32 * addr.MiB}
	tbl := e.newTable(t, region)
	if err := e.chk.SetTable(0, region, tbl.RootBase()); err != nil {
		t.Fatal(err)
	}
	// The root-pointer register (entry 1) must never match as a region,
	// even for addresses that would decode into its raw addr value.
	if got := e.chk.PMP.Entry(1).Mode(); got != pmp.Off {
		t.Errorf("successor entry mode = %v, want OFF", got)
	}
	if _, _, ok := e.chk.TableInfo(0); !ok {
		t.Error("TableInfo should decode entry 0's table config")
	}
}

func TestClearTableClearsSuccessor(t *testing.T) {
	e := newEnv(t)
	region := addr.Range{Base: 0x1000_0000, Size: 32 * addr.MiB}
	tbl := e.newTable(t, region)
	e.chk.SetTable(2, region, tbl.RootBase())
	if err := e.chk.Clear(2); err != nil {
		t.Fatal(err)
	}
	if e.chk.PMP.Entry(2).Cfg != 0 || e.chk.PMP.Entry(3).Addr != 0 {
		t.Error("Clear must wipe both the entry and its root pointer")
	}
	r, _ := e.chk.Check(region.Base, 8, perm.Read, perm.S, 0)
	if r.Allowed {
		t.Error("after clear, region must be unprotected (deny)")
	}
}

func TestMModeAboveTables(t *testing.T) {
	e := newEnv(t)
	region := addr.Range{Base: 0x1000_0000, Size: 32 * addr.MiB}
	tbl := e.newTable(t, region) // all pages None
	e.chk.SetTable(0, region, tbl.RootBase())
	r, err := e.chk.Check(region.Base, 8, perm.Write, perm.M, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Allowed {
		t.Errorf("unlocked table entry must not constrain M-mode: %+v", r)
	}
	// No covering entry at all: M default-allow, S deny.
	r, _ = e.chk.Check(0x1f00_0000+256*addr.MiB, 8, perm.Read, perm.M, 0)
	if !r.Allowed {
		t.Error("M-mode default allow")
	}
	r, _ = e.chk.Check(0x1f00_0000+256*addr.MiB, 8, perm.Read, perm.S, 0)
	if r.Allowed {
		t.Error("S-mode default deny")
	}
}

func TestModeSwitchSameEntry(t *testing.T) {
	// §4.2: "can easily switch any entry between segment and table modes by
	// changing T bit."
	e := newEnv(t)
	region := addr.Range{Base: 0x1000_0000, Size: 32 * addr.MiB}
	tbl := e.newTable(t, region)
	tbl.SetRangePerm(region, perm.R)

	// Start in table mode.
	if err := e.chk.SetTable(0, region, tbl.RootBase()); err != nil {
		t.Fatal(err)
	}
	r, _ := e.chk.Check(region.Base, 8, perm.Write, perm.S, 0)
	if r.Allowed {
		t.Fatal("table says read-only")
	}
	// Switch to segment mode with RW: the same entry now grants writes for
	// zero refs.
	if err := e.chk.Clear(0); err != nil {
		t.Fatal(err)
	}
	if err := e.chk.SetSegment(0, region, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	r, _ = e.chk.Check(region.Base, 8, perm.Write, perm.S, 0)
	if !r.Allowed || r.MemRefs != 0 {
		t.Errorf("segment mode after switch: %+v", r)
	}
}

func TestFlushWalkerCache(t *testing.T) {
	e := newEnv(t)
	cache := pmpt.NewWalkerCache(8)
	e.chk.Walker.Cache = cache
	region := addr.Range{Base: 0x1000_0000, Size: 32 * addr.MiB}
	tbl := e.newTable(t, region)
	tbl.SetPagePerm(region.Base, perm.RW)
	e.chk.SetTable(0, region, tbl.RootBase())

	r1, _ := e.chk.Check(region.Base, 8, perm.Read, perm.S, 0)
	if r1.MemRefs != 2 {
		t.Fatalf("cold: %+v", r1)
	}
	hits := e.chk.Walker.Counters.Snapshot()["pmptw.cache_hit"]
	r2, _ := e.chk.Check(region.Base, 8, perm.Read, perm.S, 0)
	if n := e.chk.Walker.Counters.Snapshot()["pmptw.cache_hit"] - hits; n != 2 || r2.MemRefs != 0 {
		t.Errorf("warm: %d cache hits, %+v", n, r2)
	}
	// The flush the monitor issues on every HPMP edit: FlushAll on the
	// machine's PMPTW cache, the cache this checker's walker holds.
	cache.FlushAll()
	r3, _ := e.chk.Check(region.Base, 8, perm.Read, perm.S, 0)
	if r3.MemRefs != 2 {
		t.Errorf("after flush: %+v", r3)
	}
}

// Property: for any page in a table-mode region, Check agrees with the
// table's software oracle for S-mode reads.
func TestCheckerOracleQuick(t *testing.T) {
	e := newEnv(t)
	region := addr.Range{Base: 0x1000_0000, Size: 64 * addr.MiB}
	tbl := e.newTable(t, region)
	if err := e.chk.SetTable(0, region, tbl.RootBase()); err != nil {
		t.Fatal(err)
	}
	f := func(pageIdx uint16, pbits uint8) bool {
		page := uint64(pageIdx) % (64 * addr.MiB / addr.PageSize)
		pa := region.Base + addr.PA(page*addr.PageSize)
		p := perm.Perm(pbits & 0x7)
		if err := tbl.SetPagePerm(pa, p); err != nil {
			return false
		}
		r, err := e.chk.Check(pa, 8, perm.Read, perm.S, 0)
		if err != nil {
			return false
		}
		return r.Allowed == p.Has(perm.R)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
