package cache

import (
	"testing"
	"testing/quick"

	"hpmp/internal/addr"
	"hpmp/internal/dram"
)

func smallCfg(name string, size uint64, ways int) Config {
	return Config{Name: name, Size: size, Ways: ways, LineSize: 64, Latency: 2}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg("c", 4*addr.KiB, 4)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "x", Size: 4096, Ways: 4, LineSize: 48, Latency: 1},     // non-pow2 line
		{Name: "x", Size: 4096, Ways: 0, LineSize: 64, Latency: 1},     // zero ways
		{Name: "x", Size: 4096, Ways: 3, LineSize: 64, Latency: 1},     // 64 lines % 3 != 0... actually 64%3!=0
		{Name: "x", Size: 64 * 48, Ways: 16, LineSize: 64, Latency: 1}, // sets=3 not pow2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c := New(smallCfg("l1", 4*addr.KiB, 4))
	pa := addr.PA(0x1234_0040)
	if c.probe(pa, false, false) {
		t.Fatal("cold cache must miss")
	}
	if !c.Contains(pa) {
		t.Fatal("a missing probe must fill the line")
	}
	if !c.probe(pa, false, false) {
		t.Error("line just filled must hit")
	}
	if !c.probe(pa+32, false, false) {
		t.Error("same line, different offset must hit")
	}
	if c.probe(pa+64, false, false) {
		t.Error("next line must miss")
	}
	if h, m, f := c.Counters.Get("l1.hit"), c.Counters.Get("l1.miss"), c.Counters.Get("l1.fill"); h != 2 || m != 2 || f != 2 {
		t.Errorf("hit/miss/fill = %d/%d/%d, want 2/2/2", h, m, f)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish scenario: 2 ways, force 3 lines into one set.
	cfg := Config{Name: "c", Size: 2 * 64 * 4, Ways: 2, LineSize: 64, Latency: 1}
	c := New(cfg) // 4 sets... sets = 512/64/2 = 4
	setStride := uint64(4 * 64)
	a := addr.PA(0)
	b := addr.PA(setStride)
	d := addr.PA(2 * setStride)
	c.probe(a, false, false)
	c.probe(b, false, false)
	c.probe(a, false, false) // make a MRU
	c.probe(d, false, false) // must evict b (LRU)
	if !c.Contains(a) {
		t.Error("MRU line evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line survived")
	}
	if !c.Contains(d) {
		t.Error("new line missing")
	}
}

func TestDirtyWriteback(t *testing.T) {
	cfg := Config{Name: "c", Size: 128, Ways: 1, LineSize: 64, Latency: 1}
	c := New(cfg) // 2 sets, direct mapped
	pa := addr.PA(0)
	c.probe(pa, true, true) // filled dirty
	// Conflict: same set (stride = sets*line = 128).
	c.probe(pa+128, false, false)
	if c.Contains(pa) || !c.Contains(pa+128) {
		t.Error("conflicting fill must replace the line")
	}
	if c.Counters.Get("c.evict") != 1 || c.Counters.Get("c.writeback") != 1 {
		t.Errorf("evict/writeback = %d/%d, want 1/1",
			c.Counters.Get("c.evict"), c.Counters.Get("c.writeback"))
	}
	// The replacement was filled clean: evicting it writes nothing back.
	c.probe(pa, false, false)
	if c.Counters.Get("c.evict") != 2 || c.Counters.Get("c.writeback") != 1 {
		t.Errorf("evict/writeback = %d/%d, want 2/1",
			c.Counters.Get("c.evict"), c.Counters.Get("c.writeback"))
	}
}

func TestWriteOnLookupMarksDirty(t *testing.T) {
	cfg := Config{Name: "c", Size: 128, Ways: 1, LineSize: 64, Latency: 1}
	c := New(cfg)
	pa := addr.PA(64)
	c.probe(pa, false, false) // filled clean
	c.probe(pa, true, false)  // store hit dirties the line
	c.probe(pa+128, false, false)
	if c.Counters.Get("c.writeback") != 1 {
		t.Error("store-hit line should write back")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(smallCfg("c", 4*addr.KiB, 4))
	c.probe(0x100, false, false)
	c.InvalidateAll()
	if c.Contains(0x100) {
		t.Error("InvalidateAll left a line")
	}
}

// Property: after a probe of pa, Contains(pa) always holds, and a probe of
// any address in the same 64-byte line hits.
func TestFillThenHitQuick(t *testing.T) {
	c := New(smallCfg("c", 8*addr.KiB, 8))
	f := func(raw uint32, off uint8) bool {
		pa := addr.PA(raw)
		c.probe(pa, false, false)
		if !c.Contains(pa) {
			return false
		}
		same := addr.PA(uint64(pa) &^ 63)
		return c.probe(same+addr.PA(uint64(off)%64), false, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func newHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:         New(Config{Name: "l1d", Size: 32 * addr.KiB, Ways: 8, LineSize: 64, Latency: 2}),
		L2:         New(Config{Name: "l2", Size: 512 * addr.KiB, Ways: 8, LineSize: 64, Latency: 12}),
		LLC:        New(Config{Name: "llc", Size: 4 * addr.MiB, Ways: 8, LineSize: 64, Latency: 26}),
		Mem:        dram.New(dram.Default()),
		ClockRatio: 1.0,
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := newHierarchy()
	pa := addr.PA(0x10_0000)

	cold := h.Access(pa, 0, false)
	if cold.Level != LvlDRAM {
		t.Fatalf("first access should reach DRAM, got %s", cold.Level)
	}
	warm := h.Access(pa, cold.Latency, false)
	if warm.Level != LvlL1 {
		t.Fatalf("second access should hit L1, got %s", warm.Level)
	}
	if warm.Latency != h.L1.Config().Latency {
		t.Errorf("L1 hit latency = %d, want %d", warm.Latency, h.L1.Config().Latency)
	}
	if cold.Latency <= warm.Latency {
		t.Error("DRAM access must cost more than an L1 hit")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := newHierarchy()
	pa := addr.PA(0x20_0000)
	h.Access(pa, 0, false) // fills all levels
	h.L1.InvalidateAll()
	r := h.Access(pa, 100, false)
	if r.Level != LvlL2 {
		t.Errorf("after L1 flush, expect L2 hit, got %s", r.Level)
	}
	h.L1.InvalidateAll()
	h.L2.InvalidateAll()
	r = h.Access(pa, 200, false)
	if r.Level != LvlLLC {
		t.Errorf("after L1+L2 flush, expect LLC hit, got %s", r.Level)
	}
	wantL2 := h.L1.Config().Latency + h.L2.Config().Latency
	h.L1.InvalidateAll()
	r = h.Access(pa, 300, false)
	if r.Level != LvlL2 || r.Latency != wantL2 {
		t.Errorf("L2 hit latency = %d (%s), want %d (L2)", r.Latency, r.Level, wantL2)
	}
}

func TestClockRatioScalesDRAM(t *testing.T) {
	h1 := newHierarchy()
	h3 := newHierarchy()
	h3.ClockRatio = 3.2
	pa := addr.PA(0x80_0000)
	r1 := h1.Access(pa, 0, false)
	r3 := h3.Access(pa, 0, false)
	if r3.Latency <= r1.Latency {
		t.Errorf("faster core clock must see more core cycles of DRAM latency: %d vs %d",
			r3.Latency, r1.Latency)
	}
}

func TestFillRefreshInPlace(t *testing.T) {
	cfg := Config{Name: "c", Size: 4 * 64, Ways: 4, LineSize: 64, Latency: 1}
	c := New(cfg)             // one set of 4 ways
	c.probe(0x40, true, true) // filled dirty
	// A second probe of the same line hits in place: no second copy, and a
	// clean access keeps the dirty bit.
	if !c.probe(0x40, false, false) {
		t.Fatal("second probe of a resident line must hit")
	}
	if c.Counters.Get("c.fill") != 1 {
		t.Errorf("fill = %d, want 1", c.Counters.Get("c.fill"))
	}
	// Three more lines fill the set; a fourth evicts 0x40, the LRU line,
	// and writes it back exactly once.
	for i := uint64(1); i <= 4; i++ {
		c.probe(addr.PA(0x40+i*64), false, false)
	}
	if c.Contains(0x40) {
		t.Error("LRU line must be evicted once the set overflows")
	}
	if wb := c.Counters.Get("c.writeback"); wb != 1 {
		t.Errorf("writeback = %d, want 1", wb)
	}
}
