// Package pmpt implements the PMP Table, the ISA extension at the heart of
// HPMP (paper §4.3): a 2-level radix permission table addressed by the
// *offset* of a physical address within the protected region. The formats
// follow paper Figure 6:
//
//   - address register (T=1): Mode in bits 63..62, PPN of the root table in
//     bits 43..0;
//   - root pmpte: V=bit0, R/W/X=bits 1..3, next-level PPN in bits 53..10;
//     R=W=X=0 makes the entry a pointer, otherwise the bits are the final
//     permission for the whole 32 MiB the entry spans (the "huge page" of
//     the permission table);
//   - leaf pmpte: sixteen 4-bit permission nibbles, one per 4 KiB page
//     (R=bit0, W=bit1, X=bit2 of each nibble, bit3 reserved);
//   - offset split: OFF[1]=bits 33..25 indexes the root table, OFF[0]=bits
//     24..16 the leaf table, PageIndex=bits 15..12 the nibble.
//
// One root table (4 KiB, 512 entries × 32 MiB) therefore reaches 16 GiB.
package pmpt

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/memport"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/stats"
)

// Geometry constants of the 2-level PMP Table.
const (
	// PagesPerLeafEntry is how many 4 KiB pages one 64-bit leaf pmpte
	// covers (16 nibbles).
	PagesPerLeafEntry = 16
	// LeafEntrySpan is the physical span of one leaf pmpte (64 KiB).
	LeafEntrySpan = PagesPerLeafEntry * addr.PageSize
	// EntriesPerTable is the entry count of a 4 KiB table of 64-bit
	// entries.
	EntriesPerTable = addr.PageSize / 8
	// RootEntrySpan is the physical span of one root pmpte: 512 leaf
	// entries × 64 KiB = 32 MiB (paper: "one root pmpte manages 32MB").
	RootEntrySpan = EntriesPerTable * LeafEntrySpan
	// MaxRegion is the reach of one 2-level table: 512 × 32 MiB = 16 GiB.
	MaxRegion = EntriesPerTable * RootEntrySpan
)

// Address-register (T=1) field layout, Figure 6-b.
const (
	addrPPNMask   = (uint64(1) << 44) - 1
	addrModeShift = 62
)

// TableMode is the Mode field of the address register. Mode 0 selects the
// 2-level table; all other values are reserved for deeper tables.
type TableMode uint8

const (
	Mode2Level TableMode = 0
)

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

// RootPTE is a decoded root pmpte.
type RootPTE uint64

// MakeRootPointer builds a valid root pmpte pointing at a leaf table.
func MakeRootPointer(leafBase addr.PA) RootPTE {
	return RootPTE(rootV | (leafBase.Frame()&rootPPNMask)<<rootPPNShift)
}

// MakeRootHuge builds a valid root pmpte whose R/W/X bits grant p to the
// whole 32 MiB span — the permission table's huge page.
func MakeRootHuge(p perm.Perm) RootPTE {
	return RootPTE(rootV | uint64(p)<<1)
}

// Valid reports the V bit.
func (r RootPTE) Valid() bool { return uint64(r)&rootV != 0 }

// IsHuge reports whether the entry carries a final permission (R/W/X ≠ 0).
func (r RootPTE) IsHuge() bool { return uint64(r)&rootPermMask != 0 }

// Perm returns the huge-entry permission.
func (r RootPTE) Perm() perm.Perm { return perm.Perm((uint64(r) >> 1) & 0x7) }

// LeafBase returns the leaf table base a pointer entry references.
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

// UniformLeaf builds a leaf pmpte granting p to all 16 pages.
func UniformLeaf(p perm.Perm) LeafPTE {
	var l LeafPTE
	for i := 0; i < PagesPerLeafEntry; i++ {
		l = l.WithPagePerm(i, p)
	}
	return l
}

// SplitOffset decomposes a region offset per Figure 6-e.
func SplitOffset(off uint64) (off1, off0 uint64, pageIdx int) {
	return (off >> 25) & 0x1ff, (off >> 16) & 0x1ff, int((off >> 12) & 0xf)
}

// Table is the software view of one PMP Table living in simulated physical
// memory: the monitor builds and edits it through this type, and the
// hardware walker reads the same bytes.
type Table struct {
	mem      *phys.Memory
	alloc    *phys.FrameAllocator
	rootBase addr.PA
	region   addr.Range // physical region the table protects
	// leafBases caches allocated leaf tables per root index to avoid
	// re-reading memory in the builder (the walker always reads memory).
	leafBases map[uint64]addr.PA
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

// read64 loads a pmpte word, notifying the tracer.
func (t *Table) read64(pa addr.PA) (uint64, error) {
	if t.Trace != nil {
		t.Trace(pa, false)
	}
	return t.mem.Read64(pa)
}

// NewTable allocates an empty (all-invalid) PMP Table protecting region.
// Table pages come from alloc and live in mem.
func NewTable(mem *phys.Memory, alloc *phys.FrameAllocator, region addr.Range) (*Table, error) {
	if region.Size > MaxRegion {
		return nil, fmt.Errorf("pmpt: region %v exceeds 2-level reach (16 GiB)", region)
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
	return &Table{
		mem:       mem,
		alloc:     alloc,
		rootBase:  root,
		region:    region,
		leafBases: make(map[uint64]addr.PA),
	}, nil
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

func (t *Table) rootEntryPA(off1 uint64) addr.PA { return t.rootBase + addr.PA(off1*8) }

// ensureLeaf materializes the leaf table for root index off1, demoting a
// huge root entry into a full leaf table if necessary.
func (t *Table) ensureLeaf(off1 uint64) (addr.PA, error) {
	if base, ok := t.leafBases[off1]; ok {
		return base, nil
	}
	rePA := t.rootEntryPA(off1)
	raw, err := t.read64(rePA)
	if err != nil {
		return 0, err
	}
	re := RootPTE(raw)
	var huge perm.Perm
	hadHuge := false
	if re.Valid() && re.IsHuge() {
		huge, hadHuge = re.Perm(), true
	}
	leaf, err := t.alloc.Alloc()
	if err != nil {
		return 0, fmt.Errorf("pmpt: allocating leaf table: %w", err)
	}
	if err := t.mem.ZeroPage(leaf); err != nil {
		return 0, err
	}
	if hadHuge {
		fill := UniformLeaf(huge)
		for i := 0; i < EntriesPerTable; i++ {
			if err := t.write64(leaf+addr.PA(i*8), uint64(fill)); err != nil {
				return 0, err
			}
		}
	}
	if err := t.write64(rePA, uint64(MakeRootPointer(leaf))); err != nil {
		return 0, err
	}
	t.leafBases[off1] = leaf
	return leaf, nil
}

// SetPagePerm sets the permission of the single 4 KiB page containing pa.
func (t *Table) SetPagePerm(pa addr.PA, p perm.Perm) error {
	off, err := t.offsetOf(pa)
	if err != nil {
		return err
	}
	off1, off0, pageIdx := SplitOffset(off)
	leaf, err := t.ensureLeaf(off1)
	if err != nil {
		return err
	}
	lePA := leaf + addr.PA(off0*8)
	raw, err := t.read64(lePA)
	if err != nil {
		return err
	}
	return t.write64(lePA, uint64(LeafPTE(raw).WithPagePerm(pageIdx, p)))
}

// SetRangePerm sets the permission for every page of [base, base+size),
// using huge root entries for fully covered 32 MiB-aligned spans (the
// optimization §8.7 relies on: "modification of a single entry to update
// the permission for a 32MB region").
func (t *Table) SetRangePerm(r addr.Range, p perm.Perm) error {
	if !addr.IsAligned(uint64(r.Base), addr.PageSize) || !addr.IsAligned(r.Size, addr.PageSize) {
		return fmt.Errorf("pmpt: range %v must be page aligned", r)
	}
	pa := r.Base
	end := r.End()
	for pa < end {
		off, err := t.offsetOf(pa)
		if err != nil {
			return err
		}
		off1, _, _ := SplitOffset(off)
		_, hasLeaf := t.leafBases[off1]
		fullSpan := addr.IsAligned(off, RootEntrySpan) && uint64(end-pa) >= RootEntrySpan
		// Revoking a whole 32 MiB span: invalidate the root pmpte (V=0
		// denies everything beneath), regardless of an existing leaf. The
		// leaf table page is abandoned to the allocator's free list.
		if fullSpan && p == perm.None {
			if err := t.write64(t.rootEntryPA(off1), 0); err != nil {
				return err
			}
			if leaf, ok := t.leafBases[off1]; ok {
				delete(t.leafBases, off1)
				t.alloc.Free(leaf)
			}
			pa += RootEntrySpan
			continue
		}
		// Granting a whole span with no leaf to keep in sync: one huge
		// root entry.
		if fullSpan && !hasLeaf {
			if err := t.write64(t.rootEntryPA(off1), uint64(MakeRootHuge(p))); err != nil {
				return err
			}
			pa += RootEntrySpan
			continue
		}
		// Whole aligned leaf pmpte (16 pages): one write.
		if addr.IsAligned(off, LeafEntrySpan) && uint64(end-pa) >= LeafEntrySpan {
			leaf, err := t.ensureLeaf(off1)
			if err != nil {
				return err
			}
			_, off0, _ := SplitOffset(off)
			if err := t.write64(leaf+addr.PA(off0*8), uint64(UniformLeaf(p))); err != nil {
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
// page granularity — leaf tables are always materialized, never huge root
// entries. The monitor uses this for domain memory, where pages of
// different domains interleave at 4 KiB granularity and a later
// single-page update must not demote a huge entry.
func (t *Table) SetRangePermPaged(r addr.Range, p perm.Perm) error {
	if !addr.IsAligned(uint64(r.Base), addr.PageSize) || !addr.IsAligned(r.Size, addr.PageSize) {
		return fmt.Errorf("pmpt: range %v must be page aligned", r)
	}
	for pa := r.Base; pa < r.End(); pa += addr.PageSize {
		off, err := t.offsetOf(pa)
		if err != nil {
			return err
		}
		off1, off0, _ := SplitOffset(off)
		leaf, err := t.ensureLeaf(off1)
		if err != nil {
			return err
		}
		// Whole leaf pmpte (16 pages) covered and aligned: one write.
		if addr.IsAligned(off, LeafEntrySpan) && uint64(r.End()-pa) >= LeafEntrySpan {
			if err := t.write64(leaf+addr.PA(off0*8), uint64(UniformLeaf(p))); err != nil {
				return err
			}
			pa += LeafEntrySpan - addr.PageSize
			continue
		}
		if err := t.SetPagePerm(pa, p); err != nil {
			return err
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
	off1, off0, pageIdx := SplitOffset(off)
	raw, err := t.mem.Read64(t.rootEntryPA(off1))
	if err != nil {
		return perm.None, err
	}
	re := RootPTE(raw)
	if !re.Valid() {
		return perm.None, nil
	}
	if re.IsHuge() {
		return re.Perm(), nil
	}
	lraw, err := t.mem.Read64(re.LeafBase() + addr.PA(off0*8))
	if err != nil {
		return perm.None, err
	}
	return LeafPTE(lraw).PagePerm(pageIdx), nil
}

// TablePages returns how many 4 KiB pages the table currently occupies
// (root + leaves), for footprint reporting.
func (t *Table) TablePages() int { return 1 + len(t.leafBases) }

// WalkResult reports one hardware permission-table walk.
type WalkResult struct {
	Perm    perm.Perm
	Valid   bool   // V bit of the root entry
	Latency uint64 // core cycles spent on pmpte memory references
	MemRefs int    // pmpte fetches that went to the memory system
	Hits    int    // pmpte fetches served by the PMPTW cache
}

// Walker is the PMPTW: the hardware state machine that traverses a PMP
// Table. It owns the optional PMPTW-Cache (§8.9).
type Walker struct {
	Port  memport.Port
	Cache *WalkerCache

	// Trace, when set, receives one obs.KindPMPTFetch event per pmpte
	// lookup (cache outcome, fetch cost). Nil costs one pointer compare per
	// lookup — the cache-hit zero-alloc pin covers it.
	Trace *obs.Tracer

	// hh holds pre-resolved counter handles. Walkers are built with struct
	// literals throughout the tree, so resolution is lazy (first walk)
	// rather than constructor-time.
	hh walkerHandles

	// latHist is the PMPT-walk latency histogram ("pmptw.walk_latency" in
	// metrics snapshots): one observation per completed walk, shallow or
	// deep. Like the counter handles it is lazily allocated on first use
	// (walkers are struct literals), then written in place — the cache-hit
	// zero-alloc pin covers the steady state.
	latHist *stats.Histogram

	Counters stats.Counters
}

type walkerHandles struct {
	invalid, huge, walk, cacheHit, memRef *uint64
}

// handles resolves the walker's counter handles on first use, all five at
// once, so every snapshot of a walker that has run lists every pmptw
// counter.
func (w *Walker) handles() *walkerHandles {
	if w.hh.invalid == nil {
		w.hh = walkerHandles{
			invalid:  w.Counters.Handle("pmptw.invalid"),
			huge:     w.Counters.Handle("pmptw.huge"),
			walk:     w.Counters.Handle("pmptw.walk"),
			cacheHit: w.Counters.Handle("pmptw.cache_hit"),
			memRef:   w.Counters.Handle("pmptw.mem_ref"),
		}
	}
	return &w.hh
}

// hist lazily allocates the walk-latency histogram, mirroring handles().
func (w *Walker) hist() *stats.Histogram {
	if w.latHist == nil {
		w.latHist = stats.DefaultLatencyHistogram()
	}
	return w.latHist
}

// Hist returns the walker's PMPT-walk latency histogram (allocating it if
// no walk has run yet). Readers follow the stats ownership model: only
// after the goroutine driving the walker has finished.
func (w *Walker) Hist() *stats.Histogram { return w.hist() }

// Walk resolves the permission for pa against the table rooted at rootBase
// protecting region, issuing pmpte fetches at core-cycle now.
func (w *Walker) Walk(rootBase addr.PA, region addr.Range, pa addr.PA, now uint64) (WalkResult, error) {
	res, err := w.walkInner(rootBase, region, pa, now)
	if err == nil {
		w.hist().Observe(res.Latency)
	}
	return res, err
}

func (w *Walker) walkInner(rootBase addr.PA, region addr.Range, pa addr.PA, now uint64) (WalkResult, error) {
	if !region.Contains(pa) {
		return WalkResult{}, fmt.Errorf("pmpt: walk for %v outside region %v", pa, region)
	}
	off := uint64(pa - region.Base)
	off1, off0, pageIdx := SplitOffset(off)
	var res WalkResult

	rootPA := rootBase + addr.PA(off1*8)
	raw, err := w.fetch(rootPA, now, &res)
	if err != nil {
		return WalkResult{}, err
	}
	re := RootPTE(raw)
	if !re.Valid() {
		*w.handles().invalid++
		return res, nil
	}
	if re.IsHuge() {
		res.Valid = true
		res.Perm = re.Perm()
		*w.handles().huge++
		return res, nil
	}
	leafPA := re.LeafBase() + addr.PA(off0*8)
	lraw, err := w.fetch(leafPA, now+res.Latency, &res)
	if err != nil {
		return WalkResult{}, err
	}
	res.Valid = true
	res.Perm = LeafPTE(lraw).PagePerm(pageIdx)
	*w.handles().walk++
	return res, nil
}

// fetch reads one pmpte, consulting the PMPTW cache first.
func (w *Walker) fetch(pa addr.PA, now uint64, res *WalkResult) (uint64, error) {
	if w.Cache != nil && w.Cache.Enabled {
		if v, ok := w.Cache.Lookup(pa); ok {
			res.Hits++
			*w.handles().cacheHit++
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
	*w.handles().memRef++
	if w.Trace != nil {
		w.Trace.Emit(obs.Event{Kind: obs.KindPMPTFetch, Access: perm.Read, PA: pa, Level: -1, Refs: 1, ChkRefs: 1, Cycles: lat})
	}
	if w.Cache != nil && w.Cache.Enabled {
		w.Cache.Insert(pa, v)
	}
	return v, nil
}

// WalkerCache is the PMPTW-Cache: a small fully-associative cache of pmpte
// words, with the same replacement rule as the PWC (true LRU). The paper's
// prototype uses 8 entries and disables it by default (§7). A
// zero-capacity cache is legal and stores nothing.
type WalkerCache struct {
	Enabled bool
	entries []wcEntry
	tick    uint64
}

type wcEntry struct {
	pa   addr.PA
	val  uint64
	lru  uint64
	used bool
}

// NewWalkerCache builds a cache with n entries (disabled until Enabled is
// set).
func NewWalkerCache(n int) *WalkerCache {
	return &WalkerCache{entries: make([]wcEntry, n)}
}

// Len returns the capacity.
func (c *WalkerCache) Len() int { return len(c.entries) }

// Lookup probes for the pmpte at pa, refreshing its LRU stamp on a hit.
func (c *WalkerCache) Lookup(pa addr.PA) (uint64, bool) {
	for i := range c.entries {
		e := &c.entries[i]
		if e.used && e.pa == pa {
			c.tick++
			e.lru = c.tick
			return e.val, true
		}
	}
	return 0, false
}

// Insert adds or refreshes the pmpte at pa, evicting true-LRU. One pass
// finds the duplicate, the first free slot, and the LRU victim together;
// a duplicate always wins over placement, so a second copy of pa can
// never be stored. A zero-capacity cache no-ops.
func (c *WalkerCache) Insert(pa addr.PA, val uint64) {
	if len(c.entries) == 0 {
		return
	}
	c.tick++
	free, victim := -1, -1
	for i := range c.entries {
		e := &c.entries[i]
		if !e.used {
			if free < 0 {
				free = i
			}
			continue
		}
		if e.pa == pa {
			e.val, e.lru = val, c.tick
			return
		}
		if victim < 0 || e.lru < c.entries[victim].lru {
			victim = i
		}
	}
	slot := free
	if slot < 0 {
		slot = victim
	}
	c.entries[slot] = wcEntry{pa: pa, val: val, lru: c.tick, used: true}
}

// Invalidate clears the cache; the monitor calls it whenever it edits a
// table (mirroring the TLB flush requirement in §5).
func (c *WalkerCache) Invalidate() {
	for i := range c.entries {
		c.entries[i] = wcEntry{}
	}
}
