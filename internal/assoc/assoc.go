// Package assoc is the fully-associative true-LRU array behind every small
// translation structure of the simulated hart: the L1 TLBs (tlb.L1), the
// page walk cache (ptw.Walker.PWC, Table 1's "PTECache") and the
// PMPTW-Cache (pmpt.WalkerCache, §7). It imports nothing from the
// simulator.
//
// The array keeps only tags and recency: a packed key slice scanned on
// every probe, and a parallel LRU-stamp slice touched only on a hit or a
// fill. Operations return slot indices, so each user keeps its payload in a
// slice of the same length and reads it only after a hit. Counters stay
// with the users.
package assoc

// Array is a fully-associative tag array with true-LRU replacement. A key
// is stored as key+1 so that 0 marks an empty slot; the one key that cannot
// be stored is ^uint64(0), which no VPN or physical address reaches.
//
// The LRU clock advances once per Lookup hit and once per Insert (a
// duplicate refresh included), and never on a miss or a flush.
type Array struct {
	keys  []uint64 // key+1 per slot; 0 = empty
	stamp []uint64 // LRU stamp per slot, meaningful only while keys[i] != 0
	tick  uint64
}

// NewArray builds an n-slot array. n = 0 is legal: every operation is then
// a no-op and every Lookup misses. It is returned by value because every
// user embeds it beside its payload slice.
func NewArray(n int) Array {
	buf := make([]uint64, 2*n)
	return Array{keys: buf[:n:n], stamp: buf[n:]}
}

// Len returns the capacity.
func (a *Array) Len() int { return len(a.keys) }

// Lookup returns the slot holding key, refreshing its LRU stamp on a hit.
func (a *Array) Lookup(key uint64) (int, bool) {
	tag := key + 1
	for i, k := range a.keys {
		if k == tag {
			a.tick++
			a.stamp[i] = a.tick
			return i, true
		}
	}
	return -1, false
}

// Insert claims the slot for key and returns it, stamped most recently
// used. One pass finds the duplicate, the first free slot and the LRU
// victim together; a duplicate wins over placement, so a key is never
// stored twice. The caller overwrites the slot's payload. At zero capacity
// Insert returns -1 and stores nothing.
func (a *Array) Insert(key uint64) int {
	if len(a.keys) == 0 {
		return -1
	}
	a.tick++
	tag := key + 1
	// The oldest stamp rides in a local: stamps start at 1, so the first
	// occupied slot always beats ^0, and a strict < keeps the first slot
	// of the minimal stamp as the victim.
	stamp := a.stamp[:len(a.keys)]
	free, victim, oldest := -1, -1, ^uint64(0)
	for i, k := range a.keys {
		if k == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if k == tag {
			stamp[i] = a.tick
			return i
		}
		if st := stamp[i]; st < oldest {
			victim, oldest = i, st
		}
	}
	slot := free
	if slot < 0 {
		slot = victim
	}
	a.keys[slot] = tag
	a.stamp[slot] = a.tick
	return slot
}

// Flush empties the slot holding key, if any.
func (a *Array) Flush(key uint64) {
	tag := key + 1
	for i, k := range a.keys {
		if k == tag {
			a.keys[i] = 0
			return
		}
	}
}

// FlushAll empties every slot.
func (a *Array) FlushAll() { clear(a.keys) }

// Cache maps keys to 64-bit words over an Array: the page walk cache holds
// PTE words and the PMPTW-Cache holds pmpte words, both keyed by physical
// address.
type Cache struct {
	tags Array
	vals []uint64
}

// NewCache builds an n-entry cache; n = 0 stores nothing.
func NewCache(n int) *Cache {
	return &Cache{tags: NewArray(n), vals: make([]uint64, n)}
}

// Len returns the capacity.
func (c *Cache) Len() int { return c.tags.Len() }

// Lookup returns the word cached under key, refreshing its recency.
func (c *Cache) Lookup(key uint64) (uint64, bool) {
	if i, ok := c.tags.Lookup(key); ok {
		return c.vals[i], true
	}
	return 0, false
}

// Insert caches val under key, refreshing a present entry in place or
// evicting the least recently used one.
func (c *Cache) Insert(key, val uint64) {
	if i := c.tags.Insert(key); i >= 0 {
		c.vals[i] = val
	}
}

// FlushAll empties the cache.
func (c *Cache) FlushAll() { c.tags.FlushAll() }
