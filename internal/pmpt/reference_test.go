package pmpt

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
)

// refTable is the table builder as it was before tables were built a leaf
// table at a time: a map memo of sub-tables, a demotion that writes the
// 512 entries of a new table one at a time, and a SetRangePermPaged that
// resolves the leaf table for every page and writes one word per page or
// whole leaf pmpte. Tests drive it beside Table and require the same
// memory, table pages and traced word sequence.
type refTable struct {
	mem       *phys.Memory
	alloc     *phys.FrameAllocator
	levels    int
	rootBase  addr.PA
	region    addr.Range
	subTables []map[uint64]addr.PA
	traced    bool
	trace     []traceRec
}

// traceRec is one word a builder reported to its tracer.
type traceRec struct {
	pa    addr.PA
	write bool
}

func newRefTable(mem *phys.Memory, alloc *phys.FrameAllocator, region addr.Range, mode TableMode) (*refTable, error) {
	root, err := alloc.Alloc()
	if err != nil {
		return nil, err
	}
	if err := mem.ZeroPage(root); err != nil {
		return nil, err
	}
	r := &refTable{mem: mem, alloc: alloc, levels: mode.Levels(), rootBase: root, region: region}
	for l := 0; l < r.levels-1; l++ {
		r.subTables = append(r.subTables, make(map[uint64]addr.PA))
	}
	return r, nil
}

func (r *refTable) write64(pa addr.PA, v uint64) error {
	if r.traced {
		r.trace = append(r.trace, traceRec{pa, true})
	}
	return r.mem.Write64(pa, v)
}

func (r *refTable) read64(pa addr.PA) (uint64, error) {
	if r.traced {
		r.trace = append(r.trace, traceRec{pa, false})
	}
	return r.mem.Read64(pa)
}

func (r *refTable) offsetOf(pa addr.PA) (uint64, error) {
	if !r.region.Contains(pa) {
		return 0, fmt.Errorf("pmpt: %v outside protected region %v", pa, r.region)
	}
	return uint64(pa - r.region.Base), nil
}

func (r *refTable) subTable(off uint64, level int) (addr.PA, error) {
	if level == r.levels-1 {
		return r.rootBase, nil
	}
	key := off / entrySpan(level+1)
	if base, ok := r.subTables[level][key]; ok {
		return base, nil
	}
	parent, err := r.subTable(off, level+1)
	if err != nil {
		return 0, err
	}
	ea := parent + addr.PA(indexAt(off, level+1)*8)
	raw, err := r.read64(ea)
	if err != nil {
		return 0, err
	}
	base, err := r.alloc.Alloc()
	if err != nil {
		return 0, fmt.Errorf("pmpt: allocating level-%d table: %w", level, err)
	}
	if err := r.mem.ZeroPage(base); err != nil {
		return 0, err
	}
	if e := RootPTE(raw); e.Valid() && e.IsHuge() {
		fill := uint64(MakeRootHuge(e.Perm()))
		if level == 0 {
			fill = uint64(UniformLeaf(e.Perm()))
		}
		for i := 0; i < EntriesPerTable; i++ {
			if err := r.write64(base+addr.PA(i*8), fill); err != nil {
				return 0, err
			}
		}
	}
	if err := r.write64(ea, uint64(MakeRootPointer(base))); err != nil {
		return 0, err
	}
	r.subTables[level][key] = base
	return base, nil
}

func (r *refTable) freeTable(base addr.PA, level int, off uint64) {
	if level > 0 {
		span := entrySpan(level)
		for i := uint64(0); i < EntriesPerTable; i++ {
			if sub, ok := r.subTables[level-1][off/span+i]; ok {
				r.freeTable(sub, level-1, off+i*span)
			}
		}
	}
	delete(r.subTables[level], off/entrySpan(level+1))
	r.alloc.Free(base)
}

func (r *refTable) SetPagePerm(pa addr.PA, p perm.Perm) error {
	off, err := r.offsetOf(pa)
	if err != nil {
		return err
	}
	leaf, err := r.subTable(off, 0)
	if err != nil {
		return err
	}
	lePA := leaf + addr.PA(indexAt(off, 0)*8)
	raw, err := r.read64(lePA)
	if err != nil {
		return err
	}
	return r.write64(lePA, uint64(LeafPTE(raw).WithPagePerm(pageIndex(off), p)))
}

func (r *refTable) SetRangePerm(rg addr.Range, p perm.Perm) error {
	if err := checkPageAligned(rg); err != nil {
		return err
	}
	pa, end := rg.Base, rg.End()
next:
	for pa < end {
		off, err := r.offsetOf(pa)
		if err != nil {
			return err
		}
		for level := r.levels - 1; level >= 1; level-- {
			span := entrySpan(level)
			if !addr.IsAligned(off, span) || uint64(end-pa) < span {
				continue
			}
			sub, hasSub := r.subTables[level-1][off/span]
			if hasSub && p != perm.None {
				continue
			}
			base, err := r.subTable(off, level)
			if err != nil {
				return err
			}
			entry := uint64(MakeRootHuge(p))
			if p == perm.None {
				entry = 0
			}
			if err := r.write64(base+addr.PA(indexAt(off, level)*8), entry); err != nil {
				return err
			}
			if hasSub {
				r.freeTable(sub, level-1, off)
			}
			pa += addr.PA(span)
			continue next
		}
		if addr.IsAligned(off, LeafEntrySpan) && uint64(end-pa) >= LeafEntrySpan {
			leaf, err := r.subTable(off, 0)
			if err != nil {
				return err
			}
			if err := r.write64(leaf+addr.PA(indexAt(off, 0)*8), uint64(UniformLeaf(p))); err != nil {
				return err
			}
			pa += LeafEntrySpan
			continue
		}
		if err := r.SetPagePerm(pa, p); err != nil {
			return err
		}
		pa += addr.PageSize
	}
	return nil
}

func (r *refTable) SetRangePermPaged(rg addr.Range, p perm.Perm) error {
	if err := checkPageAligned(rg); err != nil {
		return err
	}
	for pa := rg.Base; pa < rg.End(); pa += addr.PageSize {
		off, err := r.offsetOf(pa)
		if err != nil {
			return err
		}
		leaf, err := r.subTable(off, 0)
		if err != nil {
			return err
		}
		if addr.IsAligned(off, LeafEntrySpan) && uint64(rg.End()-pa) >= LeafEntrySpan {
			if err := r.write64(leaf+addr.PA(indexAt(off, 0)*8), uint64(UniformLeaf(p))); err != nil {
				return err
			}
			pa += LeafEntrySpan - addr.PageSize
			continue
		}
		if err := r.SetPagePerm(pa, p); err != nil {
			return err
		}
	}
	return nil
}

func (r *refTable) TablePages() int {
	n := 1
	for _, m := range r.subTables {
		n += len(m)
	}
	return n
}

// tablePair is a Table and a refTable over the same region, each in its
// own memory with its own allocator over the same frames.
type tablePair struct {
	tMem, rMem     *phys.Memory
	tAlloc, rAlloc *phys.FrameAllocator
	t              *Table
	r              *refTable
	got            []traceRec
}

// pairFrames is where both tables of a pair draw their pages from.
var pairFrames = addr.Range{Base: 0x10_0000, Size: 16 * addr.MiB}

func newTablePair(tb testing.TB, region addr.Range, mode TableMode) *tablePair {
	tb.Helper()
	p := &tablePair{
		tMem:   phys.New(32 * addr.MiB),
		rMem:   phys.New(32 * addr.MiB),
		tAlloc: phys.NewFrameAllocator(pairFrames, false),
		rAlloc: phys.NewFrameAllocator(pairFrames, false),
	}
	var err error
	if p.t, err = NewTableMode(p.tMem, p.tAlloc, region, mode); err != nil {
		tb.Fatal(err)
	}
	if p.r, err = newRefTable(p.rMem, p.rAlloc, region, mode); err != nil {
		tb.Fatal(err)
	}
	return p
}

// do runs one builder operation on both tables, traced or not, and
// requires the same error, memory, table pages, allocator state and
// traced words.
func (p *tablePair) do(tb testing.TB, op string, rg addr.Range, pm perm.Perm, traced bool) {
	tb.Helper()
	p.got, p.r.trace, p.r.traced = nil, nil, traced
	p.t.Trace = nil
	if traced {
		p.t.Trace = func(pa addr.PA, write bool) { p.got = append(p.got, traceRec{pa, write}) }
	}
	var gotErr, wantErr error
	switch op {
	case "paged":
		gotErr, wantErr = p.t.SetRangePermPaged(rg, pm), p.r.SetRangePermPaged(rg, pm)
	case "range":
		gotErr, wantErr = p.t.SetRangePerm(rg, pm), p.r.SetRangePerm(rg, pm)
	case "page":
		gotErr, wantErr = p.t.SetPagePerm(rg.Base, pm), p.r.SetPagePerm(rg.Base, pm)
	default:
		tb.Fatalf("unknown op %q", op)
	}
	what := fmt.Sprintf("%s %v %v (traced %v)", op, rg, pm, traced)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		tb.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if !slices.Equal(p.got, p.r.trace) {
		tb.Fatalf("%s: traced %d words, reference %d; first difference at %d",
			what, len(p.got), len(p.r.trace), firstDiff(p.got, p.r.trace))
	}
	if g, w := p.t.TablePages(), p.r.TablePages(); g != w {
		tb.Fatalf("%s: %d table pages, reference %d", what, g, w)
	}
	if p.tAlloc.Allocated() != p.rAlloc.Allocated() || p.tAlloc.HighWater() != p.rAlloc.HighWater() {
		tb.Fatalf("%s: allocator at %d frames / %v, reference %d / %v", what,
			p.tAlloc.Allocated(), p.tAlloc.HighWater(), p.rAlloc.Allocated(), p.rAlloc.HighWater())
	}
	var gf, wf [addr.PageSize]byte
	for pa := pairFrames.Base; pa < p.tAlloc.HighWater(); pa += addr.PageSize {
		if err := p.tMem.Read(pa, gf[:]); err != nil {
			tb.Fatal(err)
		}
		if err := p.rMem.Read(pa, wf[:]); err != nil {
			tb.Fatal(err)
		}
		if !bytes.Equal(gf[:], wf[:]) {
			i := firstDiff(gf[:], wf[:]) &^ 7
			tb.Fatalf("%s: table memory differs at %v", what, pa+addr.PA(i))
		}
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// SetRangePermPaged and the demotion in subTable match the page-by-page
// builder they replaced, word for word and trace for trace, at every
// depth: ranges aligned and unaligned to 64 KiB and to 32 MiB, ranges over
// earlier paged entries, over huge entries at levels 1 and 2 (demotion),
// and over spans a revoke freed.
func TestBuilderMatchesReference(t *testing.T) {
	const mib, gib = addr.MiB, addr.GiB
	r := func(base, size uint64) addr.Range { return addr.Range{Base: addr.PA(base), Size: size} }
	type step struct {
		op string
		r  addr.Range
		p  perm.Perm
	}
	common := []step{
		{"paged", r(0, 64*mib), perm.RWX},                        // two whole leaf tables
		{"paged", r(64*mib+12*addr.KiB, 100*addr.KiB), perm.R},   // unaligned to 64 KiB
		{"paged", r(96*mib+64*addr.KiB, 3*64*addr.KiB), perm.RW}, // 64 KiB aligned, not 32 MiB
		{"paged", r(128*mib-20*addr.KiB, mib+28*addr.KiB), perm.RX},
		{"paged", r(32*mib-4*addr.KiB, 8*addr.KiB), perm.RW},      // over paged entries
		{"paged", r(0, 64*mib), perm.None},                        // revoke over paged entries
		{"paged", r(0, 0), perm.RW},                               // empty
		{"range", r(160*mib, 32*mib), perm.RW},                    // level-1 huge entry
		{"paged", r(160*mib+4*addr.KiB, 8*addr.KiB), perm.None},   // demotes it
		{"range", r(192*mib, 32*mib), perm.R},                     // another huge entry
		{"paged", r(192*mib, 32*mib), perm.RWX},                   // demoted, then filled
		{"range", r(0, 32*mib), perm.None},                        // frees a leaf table
		{"paged", r(16*mib, 40*mib), perm.RW},                     // reuses the freed frame
		{"page", r(300*mib+4*addr.KiB, addr.PageSize), perm.X},    // single page
		{"paged", r(299*mib, 3*mib+4*addr.KiB), perm.R},           // over it
		{"paged", r(512*mib-8*addr.KiB, 8*addr.KiB), perm.RW},     // last pages of a table
		{"paged", r(256*mib, 256*mib), perm.RWX},                  // eight whole tables
		{"range", r(256*mib+64*addr.KiB, 64*addr.KiB), perm.None}, // one leaf pmpte
	}
	deep := []step{
		{"range", r(16*gib, 16*gib), perm.R},                          // level-2 huge entry
		{"paged", r(16*gib+32*mib+4*addr.KiB, 64*addr.KiB), perm.RWX}, // demotes levels 2 and 1
		{"paged", r(16*gib-mib, 2*mib), perm.RW},                      // across the level-2 boundary
		{"range", r(16*gib, 16*gib), perm.None},                       // frees the demoted subtree
		{"paged", r(16*gib, 40*mib), perm.RX},
	}
	for _, c := range []struct {
		mode  TableMode
		size  uint64
		steps []step
	}{
		{Mode2Level, 16 * gib, common},
		{Mode3Level, 32 * gib, append(slices.Clone(common), deep...)},
		{Mode4Level, 32 * gib, append(slices.Clone(common), deep...)},
	} {
		t.Run(fmt.Sprintf("%d-level", c.mode.Levels()), func(t *testing.T) {
			// The region does not start on a 32 MiB boundary: alignment is
			// of region offsets, not of physical addresses.
			base := addr.PA(0x100_1000_0000 + 16*mib + 4*addr.KiB)
			p := newTablePair(t, addr.Range{Base: base, Size: c.size}, c.mode)
			for i, s := range c.steps {
				s.r.Base += base
				p.do(t, s.op, s.r, s.p, i%2 == 0)
			}
		})
	}
}
