package memport

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cache"
	"hpmp/internal/dram"
	"hpmp/internal/phys"
)

// Hit latencies of newHier's L1 and L2.
const l1Latency, l2Latency = 2, 12

func newHier() *cache.Hierarchy {
	return &cache.Hierarchy{
		L1:         cache.New(cache.Config{Name: "l1", Size: 8 * addr.KiB, Ways: 4, LineSize: 64, Latency: l1Latency}),
		L2:         cache.New(cache.Config{Name: "l2", Size: 64 * addr.KiB, Ways: 8, LineSize: 64, Latency: l2Latency}),
		LLC:        cache.New(cache.Config{Name: "llc", Size: 512 * addr.KiB, Ways: 8, LineSize: 64, Latency: 26}),
		Mem:        dram.New(dram.Default()),
		ClockRatio: 1.0,
	}
}

func TestTimedRoundTrip(t *testing.T) {
	mem := phys.New(1 * addr.MiB)
	p := &Timed{Hier: newHier(), Mem: mem}
	lat, err := p.Write64(0x100, 0xabcd, 0)
	if err != nil || lat == 0 {
		t.Fatalf("write: lat=%d err=%v", lat, err)
	}
	v, lat2, err := p.Read64(0x100, lat)
	if err != nil || v != 0xabcd {
		t.Fatalf("read: %#x %v", v, err)
	}
	if lat2 == 0 {
		t.Error("read latency must be nonzero")
	}
	// Second read of the same line is an L1 hit: cheaper than the first.
	_, lat3, _ := p.Read64(0x100, lat+lat2)
	if lat3 >= lat2 && lat2 > 2 {
		t.Errorf("warm read (%d) should be cheaper than cold (%d)", lat3, lat2)
	}
}

func TestTimedSkipL1(t *testing.T) {
	mem := phys.New(1 * addr.MiB)
	hier := newHier()
	normal := &Timed{Hier: hier, Mem: mem}
	walker := &Timed{Hier: hier, Mem: mem, SkipL1: true}

	// Warm the line through the normal port (fills all levels).
	normal.Read64(0x2000, 0)
	// The walker port cannot hit L1 — its best case is the L2.
	_, lat, err := walker.Read64(0x2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if lat < l2Latency {
		t.Errorf("walker port latency %d below L2 latency — it must bypass L1", lat)
	}
	// And the normal port still enjoys its L1 hit.
	_, lat2, _ := normal.Read64(0x2000, 200)
	if lat2 != l1Latency {
		t.Errorf("normal port should hit L1 (%d), got %d", l1Latency, lat2)
	}
}

func TestTimedErrors(t *testing.T) {
	mem := phys.New(4 * addr.KiB)
	p := &Timed{Hier: newHier(), Mem: mem}
	if _, _, err := p.Read64(0x10_0000, 0); err == nil {
		t.Error("out-of-bounds read must fail")
	}
	if _, err := p.Write64(0x10_0000, 1, 0); err == nil {
		t.Error("out-of-bounds write must fail")
	}
	if _, _, err := p.Read64(0x3, 0); err == nil {
		t.Error("misaligned read must fail")
	}
}

func TestFlatPort(t *testing.T) {
	mem := phys.New(64 * addr.KiB)
	p := &Flat{Mem: mem, Latency: 7}
	lat, err := p.Write64(0x40, 99, 0)
	if err != nil || lat != 7 {
		t.Fatalf("flat write: %d %v", lat, err)
	}
	v, lat, err := p.Read64(0x40, 0)
	if err != nil || v != 99 || lat != 7 {
		t.Fatalf("flat read: %d %d %v", v, lat, err)
	}
}
