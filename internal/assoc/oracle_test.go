package assoc

import (
	"math/rand"
	"testing"
)

// refCache is the reference model: the page walk cache's own scan as it
// stood before the array was shared (an array of structs, each carrying
// its key, word, stamp and valid bit), plus a one-key flush written like
// the L1 TLB's FlushVPN. The Array must reproduce it slot for slot.
type refCache struct {
	entries []refEntry
	tick    uint64
}

type refEntry struct {
	pa   uint64
	val  uint64
	lru  uint64
	used bool
}

func newRefCache(n int) *refCache { return &refCache{entries: make([]refEntry, n)} }

func (c *refCache) Lookup(pa uint64) (uint64, bool) {
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

func (c *refCache) Insert(pa uint64, val uint64) {
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
	c.entries[slot] = refEntry{pa: pa, val: val, lru: c.tick, used: true}
}

func (c *refCache) Flush(pa uint64) {
	for i := range c.entries {
		if c.entries[i].used && c.entries[i].pa == pa {
			c.entries[i] = refEntry{}
		}
	}
}

func (c *refCache) FlushAll() {
	for i := range c.entries {
		c.entries[i] = refEntry{}
	}
}

// oracleCaps are the capacities the differential runs at: the degenerate
// sizes, the Table 1 PWC/PMPTW size (8), the L1 TLBs (32) and the nested
// TLB (64).
var oracleCaps = []int{0, 1, 2, 8, 32, 64}

// step applies one operation to both models and fails t on the first
// difference: the lookup result, then every slot's key, word and stamp,
// and the clock. Comparing every slot after every step catches a wrong
// victim at the insert that chose it.
func step(t *testing.T, c *Cache, ref *refCache, kind byte, key, val uint64) {
	t.Helper()
	switch kind % 4 {
	case 0:
		v, ok := c.Lookup(key)
		rv, rok := ref.Lookup(key)
		if v != rv || ok != rok {
			t.Fatalf("Lookup(%#x) = %d,%v; reference %d,%v", key, v, ok, rv, rok)
		}
	case 1:
		c.Insert(key, val)
		ref.Insert(key, val)
	case 2:
		c.tags.Flush(key)
		ref.Flush(key)
	case 3:
		c.FlushAll()
		ref.FlushAll()
	}
	if c.tags.tick != ref.tick {
		t.Fatalf("after op %d on %#x: tick %d, reference %d", kind%4, key, c.tags.tick, ref.tick)
	}
	for i, e := range ref.entries {
		k := c.tags.keys[i]
		if (k != 0) != e.used {
			t.Fatalf("after op %d on %#x: slot %d used=%v, reference %v", kind%4, key, i, k != 0, e.used)
		}
		if e.used && (k-1 != e.pa || c.vals[i] != e.val || c.tags.stamp[i] != e.lru) {
			t.Fatalf("after op %d on %#x: slot %d = {%#x %d lru %d}, reference {%#x %d lru %d}",
				kind%4, key, i, k-1, c.vals[i], c.tags.stamp[i], e.pa, e.val, e.lru)
		}
	}
}

// TestCacheMatchesReference drives seeded random Lookup/Insert/Flush/
// FlushAll sequences through the Cache and the reference scan at every
// oracle capacity. Keys come from a pool about twice the capacity, so the
// stream mixes hits, duplicate inserts, fills of free slots and evictions;
// flushes are rarer than lookups and inserts so the array runs full.
func TestCacheMatchesReference(t *testing.T) {
	for _, n := range oracleCaps {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		c, ref := NewCache(n), newRefCache(n)
		pool := uint64(2*n + 3)
		for i := 0; i < 20000; i++ {
			var kind byte
			switch r := rng.Intn(100); {
			case r < 50:
				kind = 0
			case r < 95:
				kind = 1
			case r < 99:
				kind = 2
			default:
				kind = 3
			}
			step(t, c, ref, kind, uint64(rng.Int63n(int64(pool)))*8, rng.Uint64())
		}
	}
}

// FuzzCache runs the same differential over an arbitrary op stream: the
// first byte picks the capacity, then each byte is one operation (low two
// bits) on one key (the rest), with the op index as the stored word.
func FuzzCache(f *testing.F) {
	f.Add([]byte{2, 1, 5, 9, 4, 13, 0, 17, 3, 1})
	f.Add([]byte{3, 1, 5, 9, 13, 17, 21, 0, 4, 8, 2, 6, 25, 4})
	f.Add([]byte{0, 1, 0, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := oracleCaps[int(data[0])%len(oracleCaps)]
		c, ref := NewCache(n), newRefCache(n)
		for i, b := range data[1:] {
			step(t, c, ref, b&3, uint64(b>>2), uint64(i))
		}
	})
}
