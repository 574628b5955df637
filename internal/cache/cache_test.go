package cache

import (
	"runtime"
	"testing"
	"testing/quick"

	"hpmp/internal/addr"
	"hpmp/internal/dram"
)

func smallCfg(name string, size uint64, ways int) Config {
	return Config{Name: name, Size: size, Ways: ways, LineSize: 64, Latency: 2}
}

// contains reports whether pa's line is present without touching LRU,
// counters or storage: a chunk never probed holds no line and stays
// unallocated.
func (c *Cache) contains(pa addr.PA) bool {
	set, tag := c.index(pa)
	ch := c.chunks[set>>c.chunkBits]
	if ch == nil {
		return false
	}
	i := (set & (1<<c.chunkBits - 1)) * c.ways
	return lookup(ch[i:i+c.ways], tag) != nil
}

// materialized returns the number of chunks of c that hold lines.
func (c *Cache) materialized() int {
	n := 0
	for _, ch := range c.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call.
func allocBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// rocketLLC is the largest level a machine boots: 1 MiB, 8-way, 16384
// lines.
var rocketLLC = Config{Name: "llc", Size: addr.MiB, Ways: 8, LineSize: 64, Latency: 26}

// TestNewAllocatesNoLines pins the lazy layout: building the largest level
// allocates its chunk table and no lines.
func TestNewAllocatesNoLines(t *testing.T) {
	if b := allocBytes(20, func() { New(rocketLLC) }); b >= 4096 {
		t.Errorf("New(%s) allocates %d bytes, want under 4096", rocketLLC.Name, b)
	}
}

// TestProbeMaterializesOneChunk: the first probe of a set allocates the one
// chunk holding it, a probe of another set in that chunk allocates nothing,
// and a probe of a set in another chunk allocates that chunk.
func TestProbeMaterializesOneChunk(t *testing.T) {
	c := New(rocketLLC)
	c.probe(0, false, false)
	if n := c.materialized(); n != 1 {
		t.Fatalf("one probe materialized %d chunks, want 1", n)
	}
	if got := len(c.chunks[0]); got != chunkLines {
		t.Errorf("an 8-way chunk holds %d lines, want %d", got, chunkLines)
	}
	perChunk := uint64(1) << c.chunkBits
	if b := allocBytes(10, func() { c.probe(addr.PA((perChunk-1)*64), false, false) }); b != 0 {
		t.Errorf("a probe inside a materialized chunk allocates %d bytes, want 0", b)
	}
	c.probe(addr.PA(perChunk*64), false, false)
	if n := c.materialized(); n != 2 {
		t.Errorf("a probe of the next chunk left %d chunks, want 2", n)
	}
}

// TestUnprobedLevelAllocatesNothing: flushing or querying a level that was
// never probed allocates no chunk.
func TestUnprobedLevelAllocatesNothing(t *testing.T) {
	c := New(rocketLLC)
	allocs := testing.AllocsPerRun(10, func() {
		c.InvalidateAll()
		c.contains(0x1234_5678)
	})
	if allocs != 0 || c.materialized() != 0 {
		t.Errorf("InvalidateAll and contains allocate %v times and leave %d chunks, want 0 and 0", allocs, c.materialized())
	}
}

// TestChunkGeometry: a chunk holds the power-of-two number of sets whose
// lines fill at most chunkLines, at least one set, and at most the level.
func TestChunkGeometry(t *testing.T) {
	for _, g := range []struct {
		ways, sets     uint64
		setsPerChunk   uint64
		wantChunks     int
		wantChunkLines int
	}{
		{ways: 8, sets: 2048, setsPerChunk: 32, wantChunks: 64, wantChunkLines: 256},
		{ways: 4, sets: 32, setsPerChunk: 32, wantChunks: 1, wantChunkLines: 128}, // smaller than a chunk
		{ways: 3, sets: 512, setsPerChunk: 64, wantChunks: 8, wantChunkLines: 192},
		{ways: 512, sets: 4, setsPerChunk: 1, wantChunks: 4, wantChunkLines: 512}, // a set larger than a chunk
	} {
		c := New(Config{Name: "c", Size: g.ways * g.sets * 64, Ways: int(g.ways), LineSize: 64, Latency: 1})
		for s := uint64(0); s < g.sets; s++ {
			c.probe(addr.PA(s*64), false, false)
		}
		if got := uint64(1) << c.chunkBits; got != g.setsPerChunk || len(c.chunks) != g.wantChunks || len(c.chunks[0]) != g.wantChunkLines {
			t.Errorf("%d ways x %d sets: %d sets x %d chunks of %d lines, want %d x %d of %d",
				g.ways, g.sets, got, len(c.chunks), len(c.chunks[0]), g.setsPerChunk, g.wantChunks, g.wantChunkLines)
		}
	}
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
	if !c.contains(pa) {
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
	if !c.contains(a) {
		t.Error("MRU line evicted")
	}
	if c.contains(b) {
		t.Error("LRU line survived")
	}
	if !c.contains(d) {
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
	if c.contains(pa) || !c.contains(pa+128) {
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
	if c.contains(0x100) {
		t.Error("InvalidateAll left a line")
	}
}

// Property: after a probe of pa, contains(pa) always holds, and a probe of
// any address in the same 64-byte line hits.
func TestFillThenHitQuick(t *testing.T) {
	c := New(smallCfg("c", 8*addr.KiB, 8))
	f := func(raw uint32, off uint8) bool {
		pa := addr.PA(raw)
		c.probe(pa, false, false)
		if !c.contains(pa) {
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
	if warm.Latency != h.L1.cfg.Latency {
		t.Errorf("L1 hit latency = %d, want %d", warm.Latency, h.L1.cfg.Latency)
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
	wantL2 := h.L1.cfg.Latency + h.L2.cfg.Latency
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
	if c.contains(0x40) {
		t.Error("LRU line must be evicted once the set overflows")
	}
	if wb := c.Counters.Get("c.writeback"); wb != 1 {
		t.Errorf("writeback = %d, want 1", wb)
	}
}
