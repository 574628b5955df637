// Package pmpt implements the PMP Table, the ISA extension at the heart of
// HPMP (paper §4.3): a radix permission table addressed by the *offset* of
// a physical address within the protected region. The Mode field of the
// address register sets the depth: Mode 0 is the paper's 2-level table, and
// the reserved values §4.3 names for "3-level or 4-level tables" add levels
// of the same non-leaf format above it. The formats follow paper Figure 6:
//
//   - address register (T=1): Mode in bits 63..62, PPN of the root table in
//     bits 43..0;
//   - non-leaf pmpte (the root pmpte, and every level above the leaf table):
//     V=bit0, R/W/X=bits 1..3, next-level PPN in bits 53..10; R=W=X=0 makes
//     the entry a pointer, otherwise the bits are the final permission for
//     the whole span the entry covers (the "huge page" of the permission
//     table: 32 MiB one level above the leaf table, 512× more per level);
//   - leaf pmpte: sixteen 4-bit permission nibbles, one per 4 KiB page
//     (R=bit0, W=bit1, X=bit2 of each nibble, bit3 reserved);
//   - offset split: PageIndex=bits 15..12 selects the nibble, OFF[0]=bits
//     24..16 indexes the leaf table, and each level above takes the next
//     9 bits (OFF[1]=bits 33..25 indexes the 2-level root table).
//
// One 2-level root table (4 KiB, 512 entries × 32 MiB) therefore reaches
// 16 GiB; each extra level multiplies the reach by 512.
package pmpt

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/assoc"
	"hpmp/internal/memport"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/stats"
)

// Geometry constants of the PMP Table.
const (
	// PagesPerLeafEntry is how many 4 KiB pages one 64-bit leaf pmpte
	// covers (16 nibbles).
	PagesPerLeafEntry = 16
	// LeafEntrySpan is the physical span of one leaf pmpte (64 KiB).
	LeafEntrySpan = PagesPerLeafEntry * addr.PageSize
	// EntriesPerTable is the entry count of a 4 KiB table of 64-bit
	// entries.
	EntriesPerTable = addr.PageSize / 8
	// RootEntrySpan is the physical span of one 2-level root pmpte: 512
	// leaf entries × 64 KiB = 32 MiB (paper: "one root pmpte manages 32MB").
	RootEntrySpan = EntriesPerTable * LeafEntrySpan
	// MaxRegion is the reach of one 2-level table: 512 × 32 MiB = 16 GiB.
	MaxRegion = EntriesPerTable * RootEntrySpan
)

// entrySpan returns the coverage of one entry at level, where level 0 is
// the leaf pmpte (16 pages) and each level above multiplies by 512.
func entrySpan(level int) uint64 { return LeafEntrySpan << (9 * level) }

// indexAt extracts the level-`level` table index from a region offset
// (level 0 is OFF[0] in Fig. 6-e).
func indexAt(off uint64, level int) uint64 { return (off >> (16 + 9*level)) & 0x1ff }

// pageIndex extracts the leaf-pmpte nibble index from a region offset.
func pageIndex(off uint64) int { return int((off >> 12) & 0xf) }

// SplitOffset decomposes a 2-level region offset per Figure 6-e.
func SplitOffset(off uint64) (off1, off0 uint64, pageIdx int) {
	return indexAt(off, 1), indexAt(off, 0), pageIndex(off)
}

// Address-register (T=1) field layout, Figure 6-b.
const (
	addrPPNMask   = (uint64(1) << 44) - 1
	addrModeShift = 62
)

// TableMode is the Mode field of the address register: the table depth.
type TableMode uint8

const (
	// Mode2Level selects the paper's 2-level table (reach 16 GiB).
	Mode2Level TableMode = 0
	// Mode3Level selects a 3-level table (reach 512 × 16 GiB = 8 TiB).
	Mode3Level TableMode = 1
	// Mode4Level selects a 4-level table (reach 512 × 8 TiB = 4 PiB).
	Mode4Level TableMode = 2
)

// ModeFor returns the Mode selecting a table of the given depth; depths
// other than 2, 3 and 4 map to the reserved Mode, which NewTableMode and
// the walker reject.
func ModeFor(levels int) TableMode {
	if levels < 2 || levels > 4 {
		return Mode4Level + 1
	}
	return TableMode(levels - 2)
}

// Levels returns the table depth a mode encodes (0 for the reserved mode).
func (m TableMode) Levels() int {
	if m > Mode4Level {
		return 0
	}
	return int(m) + 2
}

// Reach returns the physical span one table of this mode covers (0 for
// the reserved mode).
func (m TableMode) Reach() uint64 {
	if m.Levels() == 0 {
		return 0
	}
	return entrySpan(m.Levels())
}

// EncodeAddrReg builds the address-register value holding the root table's
// PPN and the table mode.
func EncodeAddrReg(rootBase addr.PA, mode TableMode) (uint64, error) {
	if !addr.IsAligned(uint64(rootBase), addr.PageSize) {
		return 0, fmt.Errorf("pmpt: root table base %v not page aligned", rootBase)
	}
	return (rootBase.Frame() & addrPPNMask) | uint64(mode)<<addrModeShift, nil
}

// DecodeAddrReg extracts the root table base and mode from an address
// register value.
func DecodeAddrReg(v uint64) (rootBase addr.PA, mode TableMode) {
	return addr.PA((v & addrPPNMask) << addr.PageShift), TableMode(v >> addrModeShift)
}

// Root pmpte field layout (page-table-like, Figure 6-c).
const (
	rootV        = 1 << 0
	rootPermMask = 0b1110 // R/W/X in bits 1..3
	rootPPNShift = 10
	rootPPNMask  = (uint64(1) << 44) - 1
)

// RootPTE is a decoded non-leaf pmpte: the root pmpte of a 2-level table,
// and the entry format of every level above the leaf table in deeper ones.
type RootPTE uint64

// MakeRootPointer builds a valid non-leaf pmpte pointing at the next-level
// table.
func MakeRootPointer(leafBase addr.PA) RootPTE {
	return RootPTE(rootV | (leafBase.Frame()&rootPPNMask)<<rootPPNShift)
}

// MakeRootHuge builds a valid non-leaf pmpte whose R/W/X bits grant p to
// the whole span it covers — the permission table's huge page. p must not
// be perm.None: with R=W=X=0 the entry is a pointer (to PA 0); revoke a
// span with an invalid (zero) entry instead.
func MakeRootHuge(p perm.Perm) RootPTE {
	return RootPTE(rootV | uint64(p)<<1)
}

// Valid reports the V bit.
func (r RootPTE) Valid() bool { return uint64(r)&rootV != 0 }

// IsHuge reports whether the entry carries a final permission (R/W/X ≠ 0).
func (r RootPTE) IsHuge() bool { return uint64(r)&rootPermMask != 0 }

// Perm returns the huge-entry permission.
func (r RootPTE) Perm() perm.Perm { return perm.Perm((uint64(r) >> 1) & 0x7) }

// LeafBase returns the next-level table base a pointer entry references.
func (r RootPTE) LeafBase() addr.PA {
	return addr.PA(((uint64(r) >> rootPPNShift) & rootPPNMask) << addr.PageShift)
}

// LeafPTE is a leaf pmpte: 16 permission nibbles.
type LeafPTE uint64

// PagePerm extracts the permission nibble for page index i (0..15).
func (l LeafPTE) PagePerm(i int) perm.Perm {
	return perm.Perm((uint64(l) >> (4 * i)) & 0x7)
}

// WithPagePerm returns a copy with page index i's permission replaced.
func (l LeafPTE) WithPagePerm(i int, p perm.Perm) LeafPTE {
	shift := 4 * i
	cleared := uint64(l) &^ (uint64(0xf) << shift)
	return LeafPTE(cleared | uint64(p)<<shift)
}

// UniformLeaf builds a leaf pmpte granting p to all 16 pages: p's nibble
// replicated into every nibble by one multiply.
func UniformLeaf(p perm.Perm) LeafPTE {
	return LeafPTE(uint64(p&0xf) * 0x1111_1111_1111_1111)
}

// Table is the software view of one PMP Table living in simulated physical
// memory: the monitor builds and edits it through this type, and the
// hardware walker reads the same bytes.
type Table struct {
	mem      *phys.Memory
	alloc    *phys.FrameAllocator
	mode     TableMode
	rootBase addr.PA
	region   addr.Range // physical region the table protects
	// subTables[l] memoises the materialized level-l tables (level 0 holds
	// leaf pmptes), indexed by region offset / entrySpan(l+1): each slot
	// holds the pointer pmpte installed for its table, or zero (invalid)
	// while there is none. The builder finds tables there without
	// re-reading memory (the walker always reads memory). The root table,
	// at level Levels()-1, is rootBase.
	subTables [][]RootPTE
	// Trace, when set, observes every pmpte word the builder reads or
	// writes — the monitor uses it to charge table edits through the cache
	// hierarchy.
	Trace func(pa addr.PA, write bool)
}

// write64 stores a pmpte word, notifying the tracer.
func (t *Table) write64(pa addr.PA, v uint64) error {
	if t.Trace != nil {
		t.Trace(pa, true)
	}
	return t.mem.Write64(pa, v)
}

// fill64 stores v into n consecutive pmpte words from pa with one memory
// fill, notifying the tracer of each word in address order, as n write64
// calls would.
func (t *Table) fill64(pa addr.PA, v uint64, n int) error {
	if t.Trace != nil {
		for i := 0; i < n; i++ {
			t.Trace(pa+addr.PA(8*i), true)
		}
	}
	return t.mem.Fill64(pa, v, n)
}

// read64 loads a pmpte word, notifying the tracer.
func (t *Table) read64(pa addr.PA) (uint64, error) {
	if t.Trace != nil {
		t.Trace(pa, false)
	}
	return t.mem.Read64(pa)
}

// NewTable allocates an empty (all-invalid) 2-level PMP Table protecting
// region. Table pages come from alloc and live in mem.
func NewTable(mem *phys.Memory, alloc *phys.FrameAllocator, region addr.Range) (*Table, error) {
	return NewTableMode(mem, alloc, region, Mode2Level)
}

// NewTableMode is NewTable with an explicit table depth (the §4.3 Mode
// extension, for regions past the 2-level reach).
func NewTableMode(mem *phys.Memory, alloc *phys.FrameAllocator, region addr.Range, mode TableMode) (*Table, error) {
	levels := mode.Levels()
	if levels == 0 {
		return nil, fmt.Errorf("pmpt: reserved table mode %d", mode)
	}
	if region.Size > mode.Reach() {
		return nil, fmt.Errorf("pmpt: region %v exceeds the %d-level reach", region, levels)
	}
	if !addr.IsAligned(uint64(region.Base), addr.PageSize) || !addr.IsAligned(region.Size, addr.PageSize) {
		return nil, fmt.Errorf("pmpt: region %v must be page aligned", region)
	}
	root, err := alloc.Alloc()
	if err != nil {
		return nil, fmt.Errorf("pmpt: allocating root table: %w", err)
	}
	if err := mem.ZeroPage(root); err != nil {
		return nil, err
	}
	subTables := make([][]RootPTE, levels-1)
	for l := range subTables {
		span := entrySpan(l + 1)
		subTables[l] = make([]RootPTE, (region.Size+span-1)/span)
	}
	return &Table{mem: mem, alloc: alloc, mode: mode, rootBase: root, region: region, subTables: subTables}, nil
}

// RootBase returns the root table's physical base address.
func (t *Table) RootBase() addr.PA { return t.rootBase }

// Region returns the physical region the table protects.
func (t *Table) Region() addr.Range { return t.region }

// Covers reports whether pa falls inside the protected region.
func (t *Table) Covers(pa addr.PA) bool { return t.region.Contains(pa) }

func (t *Table) offsetOf(pa addr.PA) (uint64, error) {
	if !t.Covers(pa) {
		return 0, fmt.Errorf("pmpt: %v outside protected region %v", pa, t.region)
	}
	return uint64(pa - t.region.Base), nil
}

// subTable returns the base of the level-`level` table on the path to
// region offset off, materializing it (and any missing table above it).
// Materializing beneath a huge entry demotes it: every entry of the new
// table repeats the huge permission, so no page changes.
func (t *Table) subTable(off uint64, level int) (addr.PA, error) {
	if level == t.mode.Levels()-1 {
		return t.rootBase, nil
	}
	key := off / entrySpan(level+1)
	if e := t.subTables[level][key]; e.Valid() {
		return e.LeafBase(), nil
	}
	parent, err := t.subTable(off, level+1)
	if err != nil {
		return 0, err
	}
	ea := parent + addr.PA(indexAt(off, level+1)*8)
	raw, err := t.read64(ea)
	if err != nil {
		return 0, err
	}
	base, err := t.alloc.Alloc()
	if err != nil {
		return 0, fmt.Errorf("pmpt: allocating level-%d table: %w", level, err)
	}
	if err := t.mem.ZeroPage(base); err != nil {
		return 0, err
	}
	if e := RootPTE(raw); e.Valid() && e.IsHuge() {
		fill := uint64(MakeRootHuge(e.Perm()))
		if level == 0 {
			fill = uint64(UniformLeaf(e.Perm()))
		}
		if err := t.fill64(base, fill, EntriesPerTable); err != nil {
			return 0, err
		}
	}
	ptr := MakeRootPointer(base)
	if err := t.write64(ea, uint64(ptr)); err != nil {
		return 0, err
	}
	t.subTables[level][key] = ptr
	return base, nil
}

// freeTable returns the level-`level` table at base, which covers region
// offsets from off, and every table beneath it to the allocator.
func (t *Table) freeTable(base addr.PA, level int, off uint64) {
	if level > 0 {
		span := entrySpan(level)
		subs := t.subTables[level-1]
		for i := off / span; i < off/span+EntriesPerTable && i < uint64(len(subs)); i++ {
			if e := subs[i]; e.Valid() {
				t.freeTable(e.LeafBase(), level-1, i*span)
			}
		}
	}
	t.subTables[level][off/entrySpan(level+1)] = 0
	t.alloc.Free(base)
}

func checkPageAligned(r addr.Range) error {
	if !addr.IsAligned(uint64(r.Base), addr.PageSize) || !addr.IsAligned(r.Size, addr.PageSize) {
		return fmt.Errorf("pmpt: range %v must be page aligned", r)
	}
	return nil
}

// SetPagePerm sets the permission of the single 4 KiB page containing pa.
func (t *Table) SetPagePerm(pa addr.PA, p perm.Perm) error {
	off, err := t.offsetOf(pa)
	if err != nil {
		return err
	}
	leaf, err := t.subTable(off, 0)
	if err != nil {
		return err
	}
	return t.setPage(leaf, off, p)
}

// setPage rewrites the nibble of the page at region offset off in the leaf
// table at leaf.
func (t *Table) setPage(leaf addr.PA, off uint64, p perm.Perm) error {
	lePA := leaf + addr.PA(indexAt(off, 0)*8)
	raw, err := t.read64(lePA)
	if err != nil {
		return err
	}
	return t.write64(lePA, uint64(LeafPTE(raw).WithPagePerm(pageIndex(off), p)))
}

// SetRangePerm sets the permission for every page of r with the fewest
// pmpte writes: one huge entry at the highest level whose aligned span r
// covers (the optimization §8.7 relies on: "modification of a single entry
// to update the permission for a 32MB region"), one write per whole
// aligned leaf pmpte, and page edits for the rest. A grant over a span that
// already has a sub-table writes into the sub-table, keeping it in sync.
// Revoking a whole span invalidates its entry (V=0 denies everything
// beneath) and frees the sub-tables it cut off.
func (t *Table) SetRangePerm(r addr.Range, p perm.Perm) error {
	if err := checkPageAligned(r); err != nil {
		return err
	}
	pa, end := r.Base, r.End()
next:
	for pa < end {
		off, err := t.offsetOf(pa)
		if err != nil {
			return err
		}
		for level := t.mode.Levels() - 1; level >= 1; level-- {
			span := entrySpan(level)
			if !addr.IsAligned(off, span) || uint64(end-pa) < span {
				continue
			}
			sub := t.subTables[level-1][off/span]
			if sub.Valid() && p != perm.None {
				continue
			}
			base, err := t.subTable(off, level)
			if err != nil {
				return err
			}
			entry := uint64(MakeRootHuge(p))
			if p == perm.None {
				entry = 0
			}
			if err := t.write64(base+addr.PA(indexAt(off, level)*8), entry); err != nil {
				return err
			}
			if sub.Valid() {
				t.freeTable(sub.LeafBase(), level-1, off)
			}
			pa += addr.PA(span)
			continue next
		}
		if addr.IsAligned(off, LeafEntrySpan) && uint64(end-pa) >= LeafEntrySpan {
			leaf, err := t.subTable(off, 0)
			if err != nil {
				return err
			}
			if err := t.write64(leaf+addr.PA(indexAt(off, 0)*8), uint64(UniformLeaf(p))); err != nil {
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

// SetRangePermPaged sets the permission for every page of r strictly at
// page granularity — leaf tables are always materialized, never huge
// entries. The monitor uses this for domain memory, where pages of
// different domains interleave at 4 KiB granularity and a later
// single-page update must not demote a huge entry; depth sweeps use it so
// every uncached check walks the full depth.
//
// r must lie inside the region; otherwise nothing is written. The range
// is built one leaf table (32 MiB) at a time: the table is resolved once,
// the whole leaf pmptes it covers are written with one fill, and only the
// loose pages at either end are edited one at a time. The words written,
// and the order the tracer sees them in, are those of a page-by-page loop.
func (t *Table) SetRangePermPaged(r addr.Range, p perm.Perm) error {
	if err := checkPageAligned(r); err != nil {
		return err
	}
	if r.Size > 0 && !t.region.ContainsRange(r) {
		return fmt.Errorf("pmpt: range %v outside protected region %v", r, t.region)
	}
	leafPerm := uint64(UniformLeaf(p))
	for off, end := uint64(r.Base-t.region.Base), uint64(r.End()-t.region.Base); off < end; {
		leaf, err := t.subTable(off, 0)
		if err != nil {
			return err
		}
		// [off, stop) lies under this leaf table: loose pages up to head,
		// whole leaf pmptes up to tail, loose pages again up to stop.
		stop := min(end, addr.AlignUp(off+1, RootEntrySpan))
		head := min(stop, addr.AlignUp(off, LeafEntrySpan))
		tail := head + addr.AlignDown(stop-head, LeafEntrySpan)
		for ; off < head; off += addr.PageSize {
			if err := t.setPage(leaf, off, p); err != nil {
				return err
			}
		}
		if err := t.fill64(leaf+addr.PA(indexAt(head, 0)*8), leafPerm, int((tail-head)/LeafEntrySpan)); err != nil {
			return err
		}
		for off = tail; off < stop; off += addr.PageSize {
			if err := t.setPage(leaf, off, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// LookupSW is the software (untimed) permission lookup, used by the monitor
// for bookkeeping and by tests as the oracle the hardware walker must agree
// with.
func (t *Table) LookupSW(pa addr.PA) (perm.Perm, error) {
	off, err := t.offsetOf(pa)
	if err != nil {
		return perm.None, err
	}
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
	return LeafPTE(raw).PagePerm(pageIndex(off)), nil
}

// TablePages returns how many 4 KiB pages the table currently occupies
// (root + sub-tables), for footprint reporting.
func (t *Table) TablePages() int {
	n := 1
	for _, level := range t.subTables {
		for _, e := range level {
			if e.Valid() {
				n++
			}
		}
	}
	return n
}

// WalkResult reports one hardware permission-table walk.
type WalkResult struct {
	Perm    perm.Perm
	Valid   bool   // V bit of the last non-leaf entry fetched
	Latency uint64 // core cycles spent on pmpte memory references
	MemRefs int    // pmpte fetches that went to the memory system
}

// Walker is the PMPTW: the hardware state machine that traverses a PMP
// Table. It owns the optional PMPTW-Cache (§8.9). Build one with NewWalker.
type Walker struct {
	Port  memport.Port
	Cache *WalkerCache

	// Trace, when set, receives one obs.KindPMPTFetch event per pmpte
	// lookup (cache outcome, fetch cost). Nil costs one pointer compare per
	// lookup — the cache-hit zero-alloc pin covers it.
	Trace *obs.Tracer

	// Hist is the PMPT-walk latency histogram ("pmptw.walk_latency" in
	// metrics snapshots): one observation per completed walk of any
	// depth. Readers follow the stats ownership model: only after the
	// goroutine driving the walker has finished.
	Hist stats.Histogram

	// Pre-resolved handles into Counters for the per-fetch path.
	invalid, huge, walks, cacheHit, memRef *uint64

	Counters stats.Counters
}

// NewWalker builds a PMPTW that fetches pmptes through port, consulting
// cache first when it is non-nil. It resolves every pmptw
// counter up front, so every snapshot of a walker lists all five.
func NewWalker(port memport.Port, cache *WalkerCache) *Walker {
	w := &Walker{Port: port, Cache: cache}
	w.invalid = w.Counters.Handle("pmptw.invalid")
	w.huge = w.Counters.Handle("pmptw.huge")
	w.walks = w.Counters.Handle("pmptw.walk")
	w.cacheHit = w.Counters.Handle("pmptw.cache_hit")
	w.memRef = w.Counters.Handle("pmptw.mem_ref")
	return w
}

// Fetched reports whether the walker has fetched a pmpte, from its cache
// or from memory. A machine's snapshot lists the pmptw counters only once
// it has: a checker that only ever matched segments shows no walker.
func (w *Walker) Fetched() bool { return *w.cacheHit+*w.memRef > 0 }

// Walk resolves the permission for pa against the 2-level table rooted at
// rootBase protecting region, issuing pmpte fetches at core-cycle now.
func (w *Walker) Walk(rootBase addr.PA, region addr.Range, pa addr.PA, now uint64) (WalkResult, error) {
	return w.WalkDeep(rootBase, region, Mode2Level, pa, now)
}

// WalkDeep is Walk for a table of any mode: the depth the address
// register's Mode field selects.
func (w *Walker) WalkDeep(rootBase addr.PA, region addr.Range, mode TableMode, pa addr.PA, now uint64) (WalkResult, error) {
	res, err := w.walk(rootBase, region, mode, pa, now)
	if err == nil {
		w.Hist.Observe(res.Latency)
	}
	return res, err
}

func (w *Walker) walk(rootBase addr.PA, region addr.Range, mode TableMode, pa addr.PA, now uint64) (WalkResult, error) {
	levels := mode.Levels()
	if levels == 0 {
		return WalkResult{}, fmt.Errorf("pmpt: walk with reserved mode %d", mode)
	}
	if !region.Contains(pa) {
		return WalkResult{}, fmt.Errorf("pmpt: walk for %v outside region %v", pa, region)
	}
	off := uint64(pa - region.Base)
	var res WalkResult
	base := rootBase
	for level := levels - 1; level >= 1; level-- {
		raw, err := w.fetch(base+addr.PA(indexAt(off, level)*8), now+res.Latency, &res)
		if err != nil {
			return WalkResult{}, err
		}
		e := RootPTE(raw)
		if !e.Valid() {
			*w.invalid++
			return res, nil
		}
		if e.IsHuge() {
			res.Valid = true
			res.Perm = e.Perm()
			*w.huge++
			return res, nil
		}
		base = e.LeafBase()
	}
	raw, err := w.fetch(base+addr.PA(indexAt(off, 0)*8), now+res.Latency, &res)
	if err != nil {
		return WalkResult{}, err
	}
	res.Valid = true
	res.Perm = LeafPTE(raw).PagePerm(pageIndex(off))
	*w.walks++
	return res, nil
}

// fetch reads one pmpte, consulting the PMPTW cache first.
func (w *Walker) fetch(pa addr.PA, now uint64, res *WalkResult) (uint64, error) {
	if w.Cache != nil {
		if v, ok := w.Cache.Lookup(uint64(pa)); ok {
			*w.cacheHit++
			if w.Trace != nil {
				w.Trace.Emit(obs.Event{Kind: obs.KindPMPTFetch, Access: perm.Read, PA: pa, Level: -1, Hit: true})
			}
			return v, nil
		}
	}
	v, lat, err := w.Port.Read64(pa, now)
	if err != nil {
		return 0, err
	}
	res.Latency += lat
	res.MemRefs++
	*w.memRef++
	if w.Trace != nil {
		w.Trace.Emit(obs.Event{Kind: obs.KindPMPTFetch, Access: perm.Read, PA: pa, Level: -1, Refs: 1, ChkRefs: 1, Cycles: lat})
	}
	if w.Cache != nil {
		w.Cache.Insert(uint64(pa), v)
	}
	return v, nil
}

// WalkerCache is the PMPTW-Cache: a small fully-associative true-LRU cache
// of pmpte words keyed by physical address, the same structure as the PWC.
// The paper's prototype uses 8 entries and leaves it out by default (§7);
// fig16 attaches one after boot. A zero-capacity cache is legal and stores
// nothing.
type WalkerCache struct {
	assoc.Cache
}

// NewWalkerCache builds a cache with n entries.
func NewWalkerCache(n int) *WalkerCache {
	return &WalkerCache{Cache: *assoc.NewCache(n)}
}
