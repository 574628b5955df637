package pmpt

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
)

// This file implements the extension §4.3 reserves Mode values for: deeper
// PMP Tables. Mode 1 selects a 3-level table whose extra level multiplies
// the reach by 512 — one table covers 8 TiB instead of 16 GiB, at the cost
// of one more pmpte reference per (uncached) check. Everything else — the
// pmpte formats, the huge semantics, the offset arithmetic per level —
// carries over unchanged.

// Mode3Level selects the 3-level table (reach: 512 × 16 GiB = 8 TiB).
const Mode3Level TableMode = 1

// Mode4Level selects the 4-level table (reach: 512 × 8 TiB = 4 PiB) —
// §4.3 names both "3-level or 4-level tables" as the reserved-Mode
// extensions.
const Mode4Level TableMode = 2

// Levels returns the table depth a mode encodes (0 for reserved modes).
func (m TableMode) Levels() int {
	switch m {
	case Mode2Level:
		return 2
	case Mode3Level:
		return 3
	case Mode4Level:
		return 4
	default:
		return 0
	}
}

// Reach returns the physical span one table of this mode covers.
func (m TableMode) Reach() uint64 {
	switch m {
	case Mode2Level:
		return MaxRegion
	case Mode3Level:
		return MaxRegion * EntriesPerTable
	case Mode4Level:
		return MaxRegion * EntriesPerTable * EntriesPerTable
	default:
		return 0
	}
}

// entrySpan returns the coverage of one entry at `level`, where level 0 is
// the leaf (one 64-bit pmpte = 16 pages) and higher levels multiply by 512.
func entrySpan(level int) uint64 {
	span := uint64(LeafEntrySpan)
	for i := 0; i < level; i++ {
		span *= EntriesPerTable
	}
	return span
}

// indexAt extracts the table index for `level` from a region offset.
// Level 0 is the leaf table index (OFF[0] in Fig. 6-e); the page nibble is
// below it.
func indexAt(off uint64, level int) uint64 {
	shift := 16 + 9*level
	return (off >> shift) & 0x1ff
}

// DeepTable is an N-level PMP Table (N = 2, 3, or 4) in simulated memory. The
// 2-level Table type predates it and remains the common case; DeepTable is
// the §4.3 Mode-extension for regions past 16 GiB.
type DeepTable struct {
	mem      *phys.Memory
	alloc    *phys.FrameAllocator
	mode     TableMode
	rootBase addr.PA
	region   addr.Range
	pages    int

	// Trace mirrors Table.Trace.
	Trace func(pa addr.PA, write bool)
}

// NewDeepTable allocates an all-invalid table of the given mode.
func NewDeepTable(mem *phys.Memory, alloc *phys.FrameAllocator, region addr.Range, mode TableMode) (*DeepTable, error) {
	if mode.Levels() == 0 {
		return nil, fmt.Errorf("pmpt: reserved table mode %d", mode)
	}
	if region.Size > mode.Reach() {
		return nil, fmt.Errorf("pmpt: region %v exceeds mode-%d reach", region, mode)
	}
	if !addr.IsAligned(uint64(region.Base), addr.PageSize) || !addr.IsAligned(region.Size, addr.PageSize) {
		return nil, fmt.Errorf("pmpt: region %v must be page aligned", region)
	}
	root, err := alloc.Alloc()
	if err != nil {
		return nil, err
	}
	if err := mem.ZeroPage(root); err != nil {
		return nil, err
	}
	return &DeepTable{mem: mem, alloc: alloc, mode: mode, rootBase: root, region: region, pages: 1}, nil
}

// RootBase returns the root table base.
func (t *DeepTable) RootBase() addr.PA { return t.rootBase }

// Region returns the protected region.
func (t *DeepTable) Region() addr.Range { return t.region }

// Mode returns the table depth mode.
func (t *DeepTable) Mode() TableMode { return t.mode }

// TablePages returns the allocated table page count.
func (t *DeepTable) TablePages() int { return t.pages }

func (t *DeepTable) write64(pa addr.PA, v uint64) error {
	if t.Trace != nil {
		t.Trace(pa, true)
	}
	return t.mem.Write64(pa, v)
}

func (t *DeepTable) read64(pa addr.PA) (uint64, error) {
	if t.Trace != nil {
		t.Trace(pa, false)
	}
	return t.mem.Read64(pa)
}

// SetPagePerm sets the permission of the page containing pa, materializing
// intermediate tables as needed.
func (t *DeepTable) SetPagePerm(pa addr.PA, p perm.Perm) error {
	if !t.region.Contains(pa) {
		return fmt.Errorf("pmpt: %v outside %v", pa, t.region)
	}
	off := uint64(pa - t.region.Base)
	base := t.rootBase
	for level := t.mode.Levels() - 1; level >= 1; level-- {
		ea := base + addr.PA(indexAt(off, level)*8)
		raw, err := t.read64(ea)
		if err != nil {
			return err
		}
		e := RootPTE(raw)
		switch {
		case !e.Valid():
			next, err := t.alloc.Alloc()
			if err != nil {
				return err
			}
			if err := t.mem.ZeroPage(next); err != nil {
				return err
			}
			t.pages++
			if err := t.write64(ea, uint64(MakeRootPointer(next))); err != nil {
				return err
			}
			base = next
		case e.IsHuge():
			// Demote: materialize a lower table replicating the huge perm.
			next, err := t.alloc.Alloc()
			if err != nil {
				return err
			}
			if err := t.mem.ZeroPage(next); err != nil {
				return err
			}
			t.pages++
			var fill uint64
			if level-1 == 0 {
				fill = uint64(UniformLeaf(e.Perm()))
			} else {
				fill = uint64(MakeRootHuge(e.Perm()))
			}
			for i := 0; i < EntriesPerTable; i++ {
				if err := t.write64(next+addr.PA(i*8), fill); err != nil {
					return err
				}
			}
			if err := t.write64(ea, uint64(MakeRootPointer(next))); err != nil {
				return err
			}
			base = next
		default:
			base = e.LeafBase()
		}
	}
	leafEA := base + addr.PA(indexAt(off, 0)*8)
	raw, err := t.read64(leafEA)
	if err != nil {
		return err
	}
	pageIdx := int((off >> 12) & 0xf)
	return t.write64(leafEA, uint64(LeafPTE(raw).WithPagePerm(pageIdx, p)))
}

// SetRangePerm grants p over r, using huge entries at the highest aligned
// level available (level-k entries cover 64 KiB × 512^k).
func (t *DeepTable) SetRangePerm(r addr.Range, p perm.Perm) error {
	if !addr.IsAligned(uint64(r.Base), addr.PageSize) || !addr.IsAligned(r.Size, addr.PageSize) {
		return fmt.Errorf("pmpt: range %v must be page aligned", r)
	}
	pa := r.Base
	for pa < r.End() {
		if !t.region.Contains(pa) {
			return fmt.Errorf("pmpt: %v outside %v", pa, t.region)
		}
		off := uint64(pa - t.region.Base)
		remaining := uint64(r.End() - pa)
		placed := false
		// Try the largest aligned span first (one level below the root).
		for level := t.mode.Levels() - 1; level >= 1; level-- {
			span := entrySpan(level)
			if !addr.IsAligned(off, span) || remaining < span {
				continue
			}
			ea, err := t.tableEntryPA(off, level, true)
			if err != nil {
				return err
			}
			raw, err := t.read64(ea)
			if err != nil {
				return err
			}
			if RootPTE(raw).Valid() && !RootPTE(raw).IsHuge() {
				continue // an existing sub-table must stay in sync
			}
			if err := t.write64(ea, uint64(MakeRootHuge(p))); err != nil {
				return err
			}
			pa += addr.PA(span)
			placed = true
			break
		}
		if placed {
			continue
		}
		// Whole leaf pmpte.
		if addr.IsAligned(off, LeafEntrySpan) && remaining >= LeafEntrySpan {
			ea, err := t.tableEntryPA(off, 0, true)
			if err != nil {
				return err
			}
			if err := t.write64(ea, uint64(UniformLeaf(p))); err != nil {
				return err
			}
			pa += LeafEntrySpan
			continue
		}
		if err := t.SetPagePerm(pa, p); err != nil {
			return err
		}
		pa += addr.PageSize
	}
	return nil
}

// tableEntryPA resolves the entry address at `level` for the offset,
// materializing intermediate pointer tables when create is set.
func (t *DeepTable) tableEntryPA(off uint64, level int, create bool) (addr.PA, error) {
	base := t.rootBase
	for l := t.mode.Levels() - 1; l > level; l-- {
		ea := base + addr.PA(indexAt(off, l)*8)
		raw, err := t.read64(ea)
		if err != nil {
			return 0, err
		}
		e := RootPTE(raw)
		if !e.Valid() {
			if !create {
				return 0, fmt.Errorf("pmpt: level-%d entry invalid", l)
			}
			next, err := t.alloc.Alloc()
			if err != nil {
				return 0, err
			}
			if err := t.mem.ZeroPage(next); err != nil {
				return 0, err
			}
			t.pages++
			if err := t.write64(ea, uint64(MakeRootPointer(next))); err != nil {
				return 0, err
			}
			base = next
			continue
		}
		if e.IsHuge() {
			return 0, fmt.Errorf("pmpt: level-%d entry is huge; demote first", l)
		}
		base = e.LeafBase()
	}
	return base + addr.PA(indexAt(off, level)*8), nil
}

// LookupSW is the untimed oracle.
func (t *DeepTable) LookupSW(pa addr.PA) (perm.Perm, error) {
	if !t.region.Contains(pa) {
		return perm.None, fmt.Errorf("pmpt: %v outside %v", pa, t.region)
	}
	off := uint64(pa - t.region.Base)
	base := t.rootBase
	for level := t.mode.Levels() - 1; level >= 1; level-- {
		raw, err := t.mem.Read64(base + addr.PA(indexAt(off, level)*8))
		if err != nil {
			return perm.None, err
		}
		e := RootPTE(raw)
		if !e.Valid() {
			return perm.None, nil
		}
		if e.IsHuge() {
			return e.Perm(), nil
		}
		base = e.LeafBase()
	}
	raw, err := t.mem.Read64(base + addr.PA(indexAt(off, 0)*8))
	if err != nil {
		return perm.None, err
	}
	return LeafPTE(raw).PagePerm(int((off >> 12) & 0xf)), nil
}

// WalkDeep resolves a permission through an N-level table with hardware
// semantics (used by the Walker when the addr register's Mode ≠ 0).
func (w *Walker) WalkDeep(rootBase addr.PA, region addr.Range, mode TableMode, pa addr.PA, now uint64) (WalkResult, error) {
	if mode == Mode2Level {
		return w.Walk(rootBase, region, pa, now)
	}
	res, err := w.walkDeepInner(rootBase, region, mode, pa, now)
	if err == nil {
		w.hist().Observe(res.Latency)
	}
	return res, err
}

func (w *Walker) walkDeepInner(rootBase addr.PA, region addr.Range, mode TableMode, pa addr.PA, now uint64) (WalkResult, error) {
	if mode.Levels() == 0 {
		return WalkResult{}, fmt.Errorf("pmpt: walk with reserved mode %d", mode)
	}
	if !region.Contains(pa) {
		return WalkResult{}, fmt.Errorf("pmpt: walk for %v outside region %v", pa, region)
	}
	off := uint64(pa - region.Base)
	var res WalkResult
	base := rootBase
	for level := mode.Levels() - 1; level >= 1; level-- {
		raw, err := w.fetch(base+addr.PA(indexAt(off, level)*8), now+res.Latency, &res)
		if err != nil {
			return WalkResult{}, err
		}
		e := RootPTE(raw)
		if !e.Valid() {
			*w.handles().invalid++
			return res, nil
		}
		if e.IsHuge() {
			res.Valid = true
			res.Perm = e.Perm()
			*w.handles().huge++
			return res, nil
		}
		base = e.LeafBase()
	}
	raw, err := w.fetch(base+addr.PA(indexAt(off, 0)*8), now+res.Latency, &res)
	if err != nil {
		return WalkResult{}, err
	}
	res.Valid = true
	res.Perm = LeafPTE(raw).PagePerm(int((off >> 12) & 0xf))
	*w.handles().walk++
	return res, nil
}
