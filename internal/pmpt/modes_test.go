package pmpt

import (
	"fmt"
	"testing"
	"testing/quick"

	"hpmp/internal/addr"
	"hpmp/internal/memport"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
)

const tib = 1024 * addr.GiB

// modeCases gives each table depth a region past the reach of the depth
// below it and a far page only that depth can reach.
var modeCases = []struct {
	name   string
	mode   TableMode
	region uint64
	far    addr.PA
}{
	{"2-level", Mode2Level, 16 * addr.GiB, 15 * addr.GiB},
	{"3-level", Mode3Level, 32 * addr.GiB, 20 * addr.GiB},
	{"4-level", Mode4Level, 16 * tib, 9 * tib},
}

// newModeTable builds an empty table of the given mode over [0, size).
// Sparse physical memory makes a huge address space cheap to simulate:
// only the table frames materialize.
func newModeTable(t *testing.T, mode TableMode, size uint64) (*Table, *phys.Memory) {
	t.Helper()
	mem := phys.New(64 * addr.GiB)
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 64 * addr.MiB}, false)
	tbl, err := NewTableMode(mem, alloc, addr.Range{Base: 0, Size: size}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mem
}

func TestModeProperties(t *testing.T) {
	for _, c := range []struct {
		mode   TableMode
		levels int
		reach  uint64
	}{
		{Mode2Level, 2, 16 * addr.GiB},
		{Mode3Level, 3, 8 * tib},
		{Mode4Level, 4, 4 * 1024 * tib},
		{TableMode(3), 0, 0}, // reserved
	} {
		if got := c.mode.Levels(); got != c.levels {
			t.Errorf("mode %d: Levels = %d, want %d", c.mode, got, c.levels)
		}
		if got := c.mode.Reach(); got != c.reach {
			t.Errorf("mode %d: Reach = %d, want %d", c.mode, got, c.reach)
		}
		if c.levels != 0 && ModeFor(c.levels) != c.mode {
			t.Errorf("ModeFor(%d) = %d, want %d", c.levels, ModeFor(c.levels), c.mode)
		}
	}
	for _, n := range []int{0, 1, 5} {
		if ModeFor(n).Levels() != 0 {
			t.Errorf("ModeFor(%d) must be the reserved mode", n)
		}
	}
}

func TestDeepRejects(t *testing.T) {
	mem := phys.New(1 * addr.GiB)
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0, Size: addr.MiB}, false)
	if _, err := NewTableMode(mem, alloc, addr.Range{Base: 0, Size: 4096}, TableMode(3)); err == nil {
		t.Error("reserved mode must be rejected")
	}
	for _, c := range modeCases {
		over := addr.Range{Base: 0, Size: c.mode.Reach() + addr.PageSize}
		if _, err := NewTableMode(mem, alloc, over, c.mode); err == nil {
			t.Errorf("%s: region %v beyond the reach must be rejected", c.name, over)
		}
	}
	w := &Walker{Port: &memport.Flat{Mem: mem, Latency: 1}}
	if _, err := w.WalkDeep(0, addr.Range{Base: 0, Size: addr.GiB}, TableMode(3), 0, 0); err == nil {
		t.Error("walk with the reserved mode must fail")
	}
}

// A single page deep in the region costs exactly one reference per level.
func TestDeepSetAndWalk(t *testing.T) {
	for _, c := range modeCases {
		t.Run(c.name, func(t *testing.T) {
			tbl, mem := newModeTable(t, c.mode, c.region)
			w := &Walker{Port: &memport.Flat{Mem: mem, Latency: 10}}
			if err := tbl.SetPagePerm(c.far, perm.RW); err != nil {
				t.Fatal(err)
			}
			if tbl.TablePages() != c.mode.Levels() {
				t.Errorf("table pages = %d, want one per level", tbl.TablePages())
			}
			levels := c.mode.Levels()
			res, err := w.WalkDeep(tbl.RootBase(), tbl.Region(), c.mode, c.far, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Valid || res.Perm != perm.RW || res.MemRefs != levels || res.Latency != uint64(10*levels) {
				t.Errorf("walk: %+v, want valid rw- with %d refs", res, levels)
			}
			if got, _ := tbl.LookupSW(c.far); got != perm.RW {
				t.Errorf("oracle = %v", got)
			}
			res, _ = w.WalkDeep(tbl.RootBase(), tbl.Region(), c.mode, c.far+addr.PageSize, 0)
			if res.Perm != perm.None {
				t.Errorf("neighbour perm = %v", res.Perm)
			}
		})
	}
}

// A grant covering one aligned level-L entry is one huge entry there, so
// the walk stops after levels-L references; a page edit beneath it demotes
// it without changing the rest of the span.
func TestDeepHugeLevels(t *testing.T) {
	grants := []perm.Perm{perm.R, perm.RW, perm.RX}
	for _, c := range modeCases {
		t.Run(c.name, func(t *testing.T) {
			tbl, mem := newModeTable(t, c.mode, c.region)
			w := &Walker{Port: &memport.Flat{Mem: mem, Latency: 10}}
			levels := c.mode.Levels()
			for level := levels - 1; level >= 1; level-- {
				span := entrySpan(level)
				p := grants[level-1]
				if err := tbl.SetRangePerm(addr.Range{Base: addr.PA(span), Size: span}, p); err != nil {
					t.Fatal(err)
				}
				res, err := w.WalkDeep(tbl.RootBase(), tbl.Region(), c.mode, addr.PA(span+span/2), 0)
				if err != nil || !res.Valid || res.Perm != p || res.MemRefs != levels-level {
					t.Errorf("level-%d huge walk: %+v %v, want %v in %d refs", level, res, err, p, levels-level)
				}
			}
			top := entrySpan(levels - 1)
			hole := addr.PA(top + addr.PageSize)
			if err := tbl.SetPagePerm(hole, perm.None); err != nil {
				t.Fatal(err)
			}
			if got, _ := tbl.LookupSW(hole); got != perm.None {
				t.Errorf("hole = %v", got)
			}
			if got, _ := tbl.LookupSW(hole + addr.PageSize); got != grants[levels-2] {
				t.Errorf("page after hole = %v, want %v (demotion must preserve)", got, grants[levels-2])
			}
			if got, _ := tbl.LookupSW(addr.PA(2*top - addr.PageSize)); got != grants[levels-2] {
				t.Errorf("end of demoted span = %v, want %v", got, grants[levels-2])
			}
		})
	}
}

// Property: the hardware walk agrees with the software oracle at every
// depth.
func TestDeepOracleQuick(t *testing.T) {
	for _, c := range modeCases {
		t.Run(c.name, func(t *testing.T) {
			tbl, mem := newModeTable(t, c.mode, c.region)
			w := &Walker{Port: &memport.Flat{Mem: mem, Latency: 1}}
			f := func(pageIdx uint64, pbits uint8) bool {
				pa := addr.PA(pageIdx % (c.region / addr.PageSize) * addr.PageSize)
				p := perm.Perm(pbits & 0x7)
				if err := tbl.SetPagePerm(pa, p); err != nil {
					return false
				}
				sw, err := tbl.LookupSW(pa)
				if err != nil || sw != p {
					return false
				}
				hw, err := w.WalkDeep(tbl.RootBase(), tbl.Region(), c.mode, pa, 0)
				return err == nil && hw.Perm == sw
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Revoking a whole aligned span must deny every page of it, whatever the
// span held before, at every depth. A revoked entry written as a huge entry
// with R=W=X=0 would instead be a pointer to PA 0, so page 0 is filled with
// rwx leaf pmptes to make that mistake grant access.
func TestRevokeSpanDenies(t *testing.T) {
	for _, c := range []struct {
		mode   TableMode
		region uint64
		span   addr.Range
	}{
		{Mode2Level, 16 * addr.GiB, addr.Range{Base: 8 * addr.GiB, Size: 32 * addr.MiB}},
		{Mode2Level, 16 * addr.GiB, addr.Range{Base: 0, Size: 16 * addr.GiB}},
		{Mode3Level, 32 * addr.GiB, addr.Range{Base: 16 * addr.GiB, Size: 32 * addr.MiB}},
		{Mode3Level, 32 * addr.GiB, addr.Range{Base: 16 * addr.GiB, Size: 16 * addr.GiB}},
		{Mode4Level, 16 * tib, addr.Range{Base: 16 * addr.GiB, Size: 32 * addr.MiB}},
		{Mode4Level, 16 * tib, addr.Range{Base: 16 * addr.GiB, Size: 16 * addr.GiB}},
	} {
		name := fmt.Sprintf("%d-level/%dMiB", c.mode.Levels(), c.span.Size/addr.MiB)
		t.Run(name, func(t *testing.T) {
			pages := -1
			for _, before := range []string{"fresh", "huge", "paged"} {
				tbl, mem := newModeTable(t, c.mode, c.region)
				for i := 0; i < EntriesPerTable; i++ {
					if err := mem.Write64(addr.PA(i*8), uint64(UniformLeaf(perm.RWX))); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				switch before {
				case "huge":
					err = tbl.SetRangePerm(c.span, perm.RWX)
				case "paged":
					err = tbl.SetPagePerm(c.span.Base+addr.PageSize, perm.RWX)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.SetRangePerm(c.span, perm.None); err != nil {
					t.Fatal(err)
				}
				w := &Walker{Port: &memport.Flat{Mem: mem, Latency: 1}}
				probes := []addr.PA{c.span.Base, c.span.Base + addr.PageSize, c.span.Base + addr.PA(c.span.Size/2), c.span.End() - 8}
				for _, pa := range probes {
					if got, err := tbl.LookupSW(pa); err != nil || got != perm.None {
						t.Errorf("%s: LookupSW(%v) = %v, %v; want ---", before, pa, got, err)
					}
					res, err := w.WalkDeep(tbl.RootBase(), tbl.Region(), c.mode, pa, 0)
					if err != nil || res.Valid || res.Perm != perm.None {
						t.Errorf("%s: walk(%v) = %+v, %v; want an invalid entry", before, pa, res, err)
					}
				}
				if got := w.Counters.Get("pmptw.invalid"); got != uint64(len(probes)) {
					t.Errorf("%s: pmptw.invalid = %d, want %d", before, got, len(probes))
				}
				// The revoke frees every sub-table beneath the span, so the
				// footprint does not depend on what the span held.
				if pages >= 0 && tbl.TablePages() != pages {
					t.Errorf("%s: %d table pages after the revoke, want %d as from fresh", before, tbl.TablePages(), pages)
				}
				pages = tbl.TablePages()
				if got := tbl.alloc.Allocated(); got != uint64(pages) {
					t.Errorf("%s: %d frames allocated for %d table pages", before, got, pages)
				}
			}
		})
	}
}
