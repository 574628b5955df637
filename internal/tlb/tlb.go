// Package tlb models the translation lookaside buffers of Table 1: 32-entry
// fully-associative L1 I/D TLBs and a 1024-entry direct-mapped L2 TLB.
//
// Entries implement the paper's "TLB inlining" optimization (§2.2): when the
// MMU fills a translation it also stores the physical-memory permission
// obtained from the HPMP/PMP-Table check, so a TLB hit requires no checker
// access at all — "the permission table is only required for TLB miss
// cases". Both the baselines and HPMP get this optimization, as in the
// paper's implementation (§7).
//
// Hit and miss counters are bumped through handles resolved at construction
// (stats.Counters.Handle), so a lookup pays neither a map probe nor a name
// concatenation.
package tlb

import (
	"hpmp/internal/addr"
	"hpmp/internal/assoc"
	"hpmp/internal/perm"
	"hpmp/internal/stats"
)

// Entry is one cached translation: the payload a TLB keeps for a virtual
// page number, which the TLB holds as the entry's tag.
type Entry struct {
	PFN  uint64    // physical frame number
	Perm perm.Perm // page-table permission (R/W/X of the leaf PTE)
	User bool      // PTE U bit
	// PhysPerm is the inlined physical-memory-isolation permission fetched
	// from HPMP at fill time.
	PhysPerm perm.Perm
}

// L1 is a fully-associative TLB with true-LRU replacement: an assoc.Array
// of VPNs, scanned on every lookup, beside the entries it indexes.
type L1 struct {
	tags    assoc.Array
	entries []Entry

	hHit, hMiss *uint64

	Counters stats.Counters
}

// NewL1 builds a fully-associative TLB with n entries.
func NewL1(name string, n int) *L1 {
	t := &L1{tags: assoc.NewArray(n), entries: make([]Entry, n)}
	t.hHit = t.Counters.Handle(name + ".hit")
	t.hMiss = t.Counters.Handle(name + ".miss")
	return t
}

// Lookup returns the entry translating vpn. The returned pointer aliases
// the TLB's backing store — callers must treat it as read-only and must not
// hold it across an Insert or Flush (the MMU copies what it needs before
// filling). Returning a pointer instead of an Entry value keeps the struct
// copy off the L1-hit path, the simulator's hottest.
func (t *L1) Lookup(vpn uint64) (*Entry, bool) {
	if i, ok := t.tags.Lookup(vpn); ok {
		*t.hHit++
		return &t.entries[i], true
	}
	*t.hMiss++
	return nil, false
}

// Insert fills the entry for vpn, refreshing a present VPN in place or
// evicting true-LRU; a zero-capacity TLB no-ops.
func (t *L1) Insert(vpn uint64, e Entry) {
	if i := t.tags.Insert(vpn); i >= 0 {
		t.entries[i] = e
	}
}

// FlushAll invalidates every entry (sfence.vma with no arguments, and the
// monitor's mandatory flush after HPMP updates, §5).
func (t *L1) FlushAll() { t.tags.FlushAll() }

// FlushVPN invalidates the entry for one page (sfence.vma with an address).
func (t *L1) FlushVPN(vpn uint64) { t.tags.Flush(vpn) }

// L2 is a direct-mapped second-level TLB. Like assoc.Array it tags each
// slot with VPN+1, 0 marking an empty slot.
type L2 struct {
	tags    []uint64
	entries []Entry

	hHit, hMiss *uint64

	Counters stats.Counters
}

// NewL2 builds a direct-mapped TLB with n entries (n must be a power of
// two). n = 0 is legal and models a machine without a second TLB level:
// the structure stores nothing, and the MMU skips the probe (and its
// latency charge) entirely.
func NewL2(name string, n int) *L2 {
	if n != 0 && !addr.IsPow2(uint64(n)) {
		panic("tlb: L2 size must be a power of two")
	}
	t := &L2{tags: make([]uint64, n), entries: make([]Entry, n)}
	t.hHit = t.Counters.Handle(name + ".hit")
	t.hMiss = t.Counters.Handle(name + ".miss")
	return t
}

func (t *L2) slot(vpn uint64) int { return int(vpn % uint64(len(t.tags))) }

// Lookup probes the direct-mapped array. As with L1.Lookup, the returned
// pointer aliases the slot and is read-only for the caller. A zero-capacity
// L2 misses without bumping counters: an absent structure performs no probe,
// and the MMU never calls Lookup on one — the guard here keeps a
// direct caller from dividing by zero in slot().
func (t *L2) Lookup(vpn uint64) (*Entry, bool) {
	if len(t.tags) == 0 {
		return nil, false
	}
	if i := t.slot(vpn); t.tags[i] == vpn+1 {
		*t.hHit++
		return &t.entries[i], true
	}
	*t.hMiss++
	return nil, false
}

// Insert fills the slot for vpn (direct-mapped: unconditional replace).
// A zero-capacity L2 no-ops, like L1.Insert.
func (t *L2) Insert(vpn uint64, e Entry) {
	if len(t.tags) == 0 {
		return
	}
	i := t.slot(vpn)
	t.tags[i] = vpn + 1
	t.entries[i] = e
}

// FlushAll invalidates every entry.
func (t *L2) FlushAll() { clear(t.tags) }

// FlushVPN invalidates the slot if it holds vpn.
func (t *L2) FlushVPN(vpn uint64) {
	if len(t.tags) == 0 {
		return
	}
	if i := t.slot(vpn); t.tags[i] == vpn+1 {
		t.tags[i] = 0
	}
}

// Len returns the capacity.
func (t *L2) Len() int { return len(t.tags) }
