package tlb

import (
	"testing"
	"testing/quick"

	"hpmp/internal/perm"
)

func TestL1HitMiss(t *testing.T) {
	l := NewL1("dtlb", 4)
	if _, ok := l.Lookup(42); ok {
		t.Fatal("cold TLB must miss")
	}
	l.Insert(42, Entry{PFN: 7, Perm: perm.RW, PhysPerm: perm.RWX, User: true})
	e, ok := l.Lookup(42)
	if !ok || e.PFN != 7 || e.Perm != perm.RW || e.PhysPerm != perm.RWX || !e.User {
		t.Errorf("lookup = %+v, %v", e, ok)
	}
	if l.Counters.Snapshot()["dtlb.hit"] != 1 || l.Counters.Snapshot()["dtlb.miss"] != 1 {
		t.Errorf("counters: %v", l.Counters.String())
	}
}

func TestL1LRU(t *testing.T) {
	l := NewL1("t", 2)
	l.Insert(1, Entry{PFN: 1})
	l.Insert(2, Entry{PFN: 2})
	l.Lookup(1)                // 1 becomes MRU
	l.Insert(3, Entry{PFN: 3}) // evicts 2
	if _, ok := l.Lookup(2); ok {
		t.Error("LRU entry must be evicted")
	}
	if _, ok := l.Lookup(1); !ok {
		t.Error("MRU entry must survive")
	}
	if _, ok := l.Lookup(3); !ok {
		t.Error("new entry must be present")
	}
}

func TestL1InsertUpdatesInPlace(t *testing.T) {
	l := NewL1("t", 2)
	l.Insert(5, Entry{PFN: 1})
	l.Insert(5, Entry{PFN: 9})
	e, ok := l.Lookup(5)
	if !ok || e.PFN != 9 {
		t.Errorf("duplicate insert must update: %+v", e)
	}
	// Capacity must not be consumed by the duplicate.
	l.Insert(6, Entry{PFN: 2})
	if _, ok := l.Lookup(5); !ok {
		t.Error("entry 5 evicted prematurely — duplicate insert took a slot")
	}
}

func TestFlush(t *testing.T) {
	l := NewL1("t", 4)
	l.Insert(1, Entry{})
	l.Insert(2, Entry{})
	l.FlushVPN(1)
	if _, ok := l.Lookup(1); ok {
		t.Error("FlushVPN must remove the entry")
	}
	if _, ok := l.Lookup(2); !ok {
		t.Error("FlushVPN must not remove other entries")
	}
	l.FlushAll()
	if _, ok := l.Lookup(2); ok {
		t.Error("FlushAll must remove everything")
	}
}

// TestL1ZeroCapacity: a 0-entry L1 must no-op on Insert and always miss,
// matching the zero-capacity contract of the PWC and PMPTW cache.
func TestL1ZeroCapacity(t *testing.T) {
	l := NewL1("z", 0)
	l.Insert(1, Entry{PFN: 1}) // must not panic
	if _, ok := l.Lookup(1); ok {
		t.Error("zero-capacity TLB must never hit")
	}
	l.FlushAll()
	l.FlushVPN(1)
}

func TestL2DirectMapped(t *testing.T) {
	l := NewL2("stlb", 16)
	l.Insert(5, Entry{PFN: 50})
	if e, ok := l.Lookup(5); !ok || e.PFN != 50 {
		t.Errorf("L2 lookup: %+v %v", e, ok)
	}
	// Conflicting VPN (5+16) evicts VPN 5 in a direct-mapped array.
	l.Insert(21, Entry{PFN: 210})
	if _, ok := l.Lookup(5); ok {
		t.Error("direct-mapped conflict must evict")
	}
	if e, ok := l.Lookup(21); !ok || e.PFN != 210 {
		t.Error("conflicting entry must be present")
	}
	l.FlushVPN(21)
	if _, ok := l.Lookup(21); ok {
		t.Error("L2 FlushVPN failed")
	}
}

func TestL2SizeMustBePow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two L2 must panic")
		}
	}()
	NewL2("x", 100)
}

// Property: after Insert(vpn, e), Lookup(vpn) returns e until an eviction or
// flush; with capacity ≥ distinct VPNs inserted, nothing is lost.
func TestL1NoLossUnderCapacityQuick(t *testing.T) {
	f := func(vpnsRaw []uint16) bool {
		vpns := make(map[uint64]bool)
		for _, v := range vpnsRaw {
			vpns[uint64(v)] = true
		}
		if len(vpns) > 32 {
			return true // skip oversized sets
		}
		l := NewL1("q", 32)
		for v := range vpns {
			l.Insert(v, Entry{PFN: v * 2})
		}
		for v := range vpns {
			e, ok := l.Lookup(v)
			if !ok || e.PFN != v*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
