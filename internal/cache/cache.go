// Package cache implements the set-associative cache hierarchy of the
// simulated SoCs (Table 1 of the paper): split L1 I/D caches, a unified L2,
// and a last-level cache in front of DRAM. Caches are write-allocate, with
// true-LRU replacement; write-backs are not timed, so a line has no dirty
// bit. Timing is additive: a request pays each level's access latency until
// it hits, and a miss at the LLC pays the DRAM model's latency.
package cache

import (
	"fmt"
	"math/bits"

	"hpmp/internal/addr"
	"hpmp/internal/dram"
	"hpmp/internal/stats"
)

// LineSize is the bytes per line of every cache level of both SoCs
// (Table 1), and so the granule of one timed memory reference.
const LineSize = 1 << lineBits

// lineBits is log2(LineSize).
const lineBits = 6

// Config describes one cache level.
type Config struct {
	Name    string
	Size    uint64 // total bytes
	Ways    int    // associativity (1 = direct mapped)
	Latency uint64 // access latency in cycles (hit or lookup-on-miss)
}

// Validate checks the geometry is realizable.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways must be positive", c.Name)
	}
	lines := c.Size / LineSize
	if lines == 0 || lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible into %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if !addr.IsPow2(sets) {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// line is one cache line in one word: the tag plus one,
//
//	line = tag+1
//
// so 0 is an invalid line and a tag scan compares one word per way. A
// line has no dirty bit: write-backs are not timed, so nothing would read
// it. Simulated physical addresses are far below 2^64, so tag+1 never
// overflows.
//
// A set keeps its ways in recency order, most recently used first: a hit
// moves its line to way 0 and a fill shifts every way down by one and
// writes way 0. No single line is ever invalidated, so the valid lines are
// always a prefix of the set and the least recently used line, the victim,
// is always the last way.
type line uint64

// key returns the line of tag.
func key(tag uint64) line { return line(tag + 1) }

// chunkLines is the number of lines in one chunk: 2 KiB of host memory.
const chunkLines = 256

// Cache is one level of the hierarchy. Its lines are stored in chunks of
// consecutive sets, each chunk allocated the first time one of its sets is
// probed: a machine boots about 145 KiB of lines over its three levels, and
// a light job (one Table 2 probe, one daemon job) touches a few of them. A
// chunk holds the sets whose lines fill chunkLines, rounded down to a power
// of two, and at least one set; a level smaller than a chunk is one chunk.
type Cache struct {
	cfg       Config
	sets      uint64
	ways      uint64
	setBits   uint     // log2(sets): Validate guarantees a power of two
	chunkBits uint     // log2(sets per chunk)
	chunks    [][]line // set s is ways (s mod sets per chunk)*ways on of chunks[s>>chunkBits]; nil until probed
}

// New builds a cache level from cfg; invalid geometry panics (it is a
// programming error in a fixed experiment configuration). It allocates only
// the chunk table, whatever the set count; set allocates each chunk of
// lines on its first probe.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ways := uint64(cfg.Ways)
	sets := cfg.Size / LineSize / ways
	perChunk := max(uint64(chunkLines)/ways, 1)
	chunkBits := min(uint(bits.Len64(perChunk)-1), uint(bits.TrailingZeros64(sets)))
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		ways:      ways,
		setBits:   uint(bits.TrailingZeros64(sets)),
		chunkBits: chunkBits,
		chunks:    make([][]line, sets>>chunkBits),
	}
}

// index splits pa into set and tag with a mask and a shift rather than % and
// / by c.sets: a 64-bit divide by a runtime value was the largest single cost
// of a cache probe, and every simulated reference makes at least one.
func (c *Cache) index(pa addr.PA) (set, tag uint64) {
	lineAddr := uint64(pa) >> lineBits
	return lineAddr & (c.sets - 1), lineAddr >> c.setBits
}

// set returns the ways of set s, allocating its chunk on the first probe
// of any set in it. It is the only place that allocates after New.
func (c *Cache) set(s uint64) []line {
	ch := c.chunks[s>>c.chunkBits]
	if ch == nil {
		ch = make([]line, c.ways<<c.chunkBits)
		c.chunks[s>>c.chunkBits] = ch
	}
	i := (s & (1<<c.chunkBits - 1)) * c.ways
	return ch[i : i+c.ways : i+c.ways]
}

// lookup returns the way of a set holding the line k, or -1.
func lookup(ways []line, k line) int {
	for i, l := range ways {
		if l == k {
			return i
		}
	}
	return -1
}

// probe is the fused lookup-or-fill, one call per level per access: a hit
// moves the line to the front of its set; a miss evicts the last way and
// fills the line at the front. It reports whether the probe hit.
//
// A hit costs one tag scan and a shift of the ways in front of its line, a
// miss one tag scan and a shift of the whole set: the recency order makes
// the victim the last way, with no stamp to keep and no victim scan.
func (c *Cache) probe(pa addr.PA) bool {
	set, tag := c.index(pa)
	ways := c.set(set)
	k := key(tag)
	if i := lookup(ways, k); i >= 0 {
		if i > 0 {
			copy(ways[1:i+1], ways[:i])
		}
		ways[0] = k
		return true
	}
	copy(ways[1:], ways)
	ways[0] = k
	return false
}

// InvalidateAll flushes the cache (used to build cold-state test cases).
// Only chunks that exist hold lines, so only they are cleared.
func (c *Cache) InvalidateAll() {
	for _, ch := range c.chunks {
		clear(ch)
	}
}

// Hierarchy composes L1, L2, LLC and DRAM into a single access path.
// Instruction fetches and data accesses share every level, the L1
// included. Build one with NewHierarchy.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache
	Mem *dram.DRAM
	// ClockRatio converts memory-controller cycles to core cycles (3.2 for
	// BOOM at 3.2 GHz with a 1 GHz controller; 1.0 for Rocket).
	ClockRatio float64

	// Pre-resolved handles into Counters for the per-access path.
	l1Hit, l2Hit, llcHit, dramAccess *uint64

	Counters stats.Counters
}

// NewHierarchy composes the levels and the DRAM model into one access
// path, clockRatio core cycles per memory-controller cycle. It resolves
// every mem.* counter up front, so every snapshot of a hierarchy lists all
// four.
func NewHierarchy(l1, l2, llc *Cache, mem *dram.DRAM, clockRatio float64) *Hierarchy {
	h := &Hierarchy{L1: l1, L2: l2, LLC: llc, Mem: mem, ClockRatio: clockRatio}
	h.l1Hit = h.Counters.Handle("mem.l1_hit")
	h.l2Hit = h.Counters.Handle("mem.l2_hit")
	h.llcHit = h.Counters.Handle("mem.llc_hit")
	h.dramAccess = h.Counters.Handle("mem.dram_access")
	return h
}

// Level identifies the hierarchy level that satisfied a request. The values
// index the MMU's per-level counter handles.
type Level uint8

const (
	LvlL1 Level = iota
	LvlL2
	LvlLLC
	LvlDRAM
	// NumLevels sizes per-level lookup arrays.
	NumLevels
)

// String returns the paper's label for the level ("L1", "L2", "LLC",
// "DRAM").
func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlLLC:
		return "LLC"
	case LvlDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// AccessResult describes where a request was satisfied. Level carries the
// hit level as an index (render with Level.String when a name is needed) so
// the struct stays two words — it rides the MMU's per-access hot path and
// must not drag a string header through every return.
type AccessResult struct {
	Latency uint64 // total core cycles
	Level   Level  // where the request hit
}

// Access runs one line-sized memory reference at core-cycle `now` through
// the hierarchy and returns its latency in core cycles. Misses fill all
// levels on the way back (inclusive fill).
func (h *Hierarchy) Access(pa addr.PA, now uint64, write bool) AccessResult {
	return h.access(pa, now, write, false)
}

// AccessNoL1 is the walker-side port: page-table and permission-table
// walkers fetch from the L2 downward (Rocket's and BOOM's PTWs do not
// allocate into the L1 D-cache), so PTE/pmpte reuse is captured by L2/LLC
// only.
func (h *Hierarchy) AccessNoL1(pa addr.PA, now uint64, write bool) AccessResult {
	return h.access(pa, now, write, true)
}

// access probes each level once, top down, until one hits. Every level
// that misses fills the line in the same probe (inclusive fill).
func (h *Hierarchy) access(pa addr.PA, now uint64, write bool, skipL1 bool) AccessResult {
	var lat uint64
	if !skipL1 {
		lat = h.L1.cfg.Latency
		if h.L1.probe(pa) {
			*h.l1Hit++
			return AccessResult{Latency: lat, Level: LvlL1}
		}
	}
	lat += h.L2.cfg.Latency
	if h.L2.probe(pa) {
		*h.l2Hit++
		return AccessResult{Latency: lat, Level: LvlL2}
	}
	lat += h.LLC.cfg.Latency
	if h.LLC.probe(pa) {
		*h.llcHit++
		return AccessResult{Latency: lat, Level: LvlLLC}
	}
	// DRAM: convert the core-cycle issue time into controller cycles, run
	// the access, convert back. A write miss pays an extra
	// read-for-ownership burst before the line is writable.
	memNow := uint64(float64(now+lat) / h.ClockRatio)
	done := h.Mem.Access(pa, memNow, write)
	dramLat := uint64(float64(done-memNow) * h.ClockRatio)
	if write {
		dramLat += uint64(16 * h.ClockRatio)
	}
	lat += dramLat
	*h.dramAccess++
	return AccessResult{Latency: lat, Level: LvlDRAM}
}

// InvalidateAll flushes every level.
func (h *Hierarchy) InvalidateAll() {
	h.L1.InvalidateAll()
	h.L2.InvalidateAll()
	h.LLC.InvalidateAll()
}
