package assoc

import "testing"

// op is one step of a scripted cache run. Lookups state the expected
// outcome; the other kinds only act.
type op struct {
	kind byte // 'L' lookup, 'I' insert, 'F' flush one key, 'A' flush all
	key  uint64
	val  uint64 // 'I': the word stored; 'L' hit: the word expected
	hit  bool   // 'L': whether the lookup must hit
}

func lookup(key, val uint64) op { return op{kind: 'L', key: key, val: val, hit: true} }
func miss(key uint64) op        { return op{kind: 'L', key: key} }
func insert(key, val uint64) op { return op{kind: 'I', key: key, val: val} }
func flush(key uint64) op       { return op{kind: 'F', key: key} }
func flushAll() op              { return op{kind: 'A'} }

// TestCache is the replacement suite shared by every user of the array:
// the L1 TLBs, the page walk cache and the PMPTW-Cache all inherit exactly
// this behaviour.
func TestCache(t *testing.T) {
	cases := []struct {
		name string
		cap  int
		ops  []op
	}{
		{"lru", 2, []op{
			insert(0x10, 1), insert(0x20, 2),
			lookup(0x10, 1), // 0x10 becomes MRU
			insert(0x30, 3), // evicts 0x20
			miss(0x20), lookup(0x10, 1), lookup(0x30, 3),
			insert(0x10, 99), // reinsert updates in place
			lookup(0x10, 99),
		}},
		{"eviction_order", 3, []op{
			insert(0x10, 1), insert(0x20, 2), insert(0x30, 3),
			lookup(0x10, 1), // recency old→new: 0x20, 0x30, 0x10
			insert(0x40, 4), // evicts 0x20
			miss(0x20),      // misses do not touch recency
			insert(0x50, 5), // evicts 0x30
			miss(0x30),
			lookup(0x10, 1), lookup(0x40, 4), lookup(0x50, 5),
		}},
		// Re-inserting a present key refreshes its word and recency in
		// place; a second copy would resurrect a stale word once the first
		// is evicted.
		{"duplicate_insert_refreshes", 2, []op{
			insert(0x10, 1), insert(0x20, 2),
			insert(0x10, 11), // refresh: 0x20 becomes LRU
			insert(0x30, 3),  // must evict 0x20, not a duplicate slot of 0x10
			miss(0x20), lookup(0x10, 11),
			lookup(0x30, 3),
			insert(0x40, 4), // evicts 0x10
			miss(0x10),
		}},
		// An entry that hit just before a flush must not survive it, and its
		// slot is reusable.
		{"flush_all_clears_memo", 4, []op{
			insert(0x10, 1), lookup(0x10, 1),
			flushAll(), miss(0x10),
			insert(0x10, 2), lookup(0x10, 2),
		}},
		// A flushed slot is refilled before any live entry is evicted, and
		// a duplicate behind the hole still wins over the hole.
		{"flush_one_frees_slot", 3, []op{
			insert(0x10, 1), insert(0x20, 2), insert(0x30, 3),
			flush(0x20), miss(0x20), flush(0x99),
			insert(0x30, 33), // duplicate behind the hole
			insert(0x40, 4),  // takes the hole; nothing evicted
			lookup(0x10, 1), lookup(0x30, 33), lookup(0x40, 4),
		}},
		// Key 0 is a real key (physical address 0, VPN 0), distinct from an
		// empty slot.
		{"key_zero", 2, []op{
			miss(0), insert(0, 7), lookup(0, 7), flush(0), miss(0),
		}},
		// Zero capacity is reachable from configuration (-pwc 0,
		// -pmptw-cache 0, a 0-entry L1): every operation no-ops.
		{"zero_capacity", 0, []op{
			insert(0x10, 1), miss(0x10), flush(0x10), flushAll(), miss(0x10),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(tc.cap)
			for i, o := range tc.ops {
				switch o.kind {
				case 'L':
					v, ok := c.Lookup(o.key)
					if ok != o.hit || (ok && v != o.val) {
						t.Fatalf("op %d: Lookup(%#x) = %d,%v; want %d,%v", i, o.key, v, ok, o.val, o.hit)
					}
				case 'I':
					c.Insert(o.key, o.val)
				case 'F':
					c.tags.Flush(o.key)
				case 'A':
					c.FlushAll()
				}
			}
		})
	}
}
