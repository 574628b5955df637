// Package cache implements the set-associative cache hierarchy of the
// simulated SoCs (Table 1 of the paper): split L1 I/D caches, a unified L2,
// and a last-level cache in front of DRAM. Caches are write-back,
// write-allocate, with true-LRU replacement. Timing is additive: a request
// pays each level's access latency until it hits, and a miss at the LLC pays
// the DRAM model's latency.
package cache

import (
	"fmt"
	"math/bits"

	"hpmp/internal/addr"
	"hpmp/internal/dram"
	"hpmp/internal/stats"
)

// Config describes one cache level.
type Config struct {
	Name     string
	Size     uint64 // total bytes
	Ways     int    // associativity (1 = direct mapped)
	LineSize uint64 // bytes per line
	Latency  uint64 // access latency in cycles (hit or lookup-on-miss)
}

// Validate checks the geometry is realizable.
func (c Config) Validate() error {
	if c.LineSize == 0 || !addr.IsPow2(c.LineSize) {
		return fmt.Errorf("cache %s: line size %d must be a power of two", c.Name, c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways must be positive", c.Name)
	}
	lines := c.Size / c.LineSize
	if lines == 0 || lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible into %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if !addr.IsPow2(sets) {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// line is one cache line, packed into 16 bytes: an 8-way set spans two host
// cache lines, and a machine boot allocates a third less than with a bool
// beside the tag and stamp. meta holds the line's LRU stamp above the dirty
// bit,
//
//	meta = stamp<<lineStateBits | dirty
//
// and is 0 exactly when the line is invalid, since stamps start at 1.
// Stamps are unique within a cache, so comparing meta orders lines by
// recency.
type line struct {
	tag  uint64
	meta uint64
}

const (
	lineDirty     uint64 = 1
	lineStateBits        = 1
)

func (l *line) valid() bool { return l.meta != 0 }

// touch stamps l most recently used at tick, keeping its dirty bit.
func (l *line) touch(tick uint64) {
	l.meta = tick<<lineStateBits | l.meta&lineDirty
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg      Config
	sets     uint64
	ways     uint64
	lineBits uint
	setBits  uint   // log2(sets): Validate guarantees a power of two
	lines    []line // set s occupies lines[s*ways : (s+1)*ways]
	tick     uint64 // LRU clock

	// Hot-path counter handles, resolved once in New so per-access bumps
	// pay neither a map lookup nor the cfg.Name+suffix concatenation.
	hHit, hMiss, hFill, hEvict, hWriteback *uint64

	Counters stats.Counters
}

// New builds a cache level from cfg; invalid geometry panics (it is a
// programming error in a fixed experiment configuration). The whole level
// is one allocation, whatever its set count: a machine boots four levels,
// and a slice per set made boot allocation-bound.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ways := uint64(cfg.Ways)
	sets := cfg.Size / cfg.LineSize / ways
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     ways,
		lineBits: uint(bits.TrailingZeros64(cfg.LineSize)),
		setBits:  uint(bits.TrailingZeros64(sets)),
		lines:    make([]line, sets*ways),
	}
	c.hHit = c.Counters.Handle(cfg.Name + ".hit")
	c.hMiss = c.Counters.Handle(cfg.Name + ".miss")
	c.hFill = c.Counters.Handle(cfg.Name + ".fill")
	c.hEvict = c.Counters.Handle(cfg.Name + ".evict")
	c.hWriteback = c.Counters.Handle(cfg.Name + ".writeback")
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// index splits pa into set and tag with a mask and a shift rather than % and
// / by c.sets: a 64-bit divide by a runtime value was the largest single cost
// of a cache probe, and every simulated reference makes at least one.
func (c *Cache) index(pa addr.PA) (set, tag uint64) {
	lineAddr := uint64(pa) >> c.lineBits
	return lineAddr & (c.sets - 1), lineAddr >> c.setBits
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	i := s * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// lookup returns the line of a set holding tag, or nil.
func lookup(ways []line, tag uint64) *line {
	for i := range ways {
		if l := &ways[i]; l.tag == tag && l.valid() {
			return l
		}
	}
	return nil
}

// victim returns the way of a set a fill takes: the first invalid way, else
// the least recently used way.
func victim(ways []line) int {
	w, oldest := 0, ^uint64(0)
	for i := range ways {
		l := &ways[i]
		if !l.valid() {
			return i
		}
		if l.meta < oldest {
			w, oldest = i, l.meta
		}
	}
	return w
}

// probe is the fused lookup-or-fill, one call per level per access: a hit
// refreshes the line's LRU stamp (and dirties it when write); a miss fills
// the line into the way victim picks, dirty when fillDirty. It reports
// whether the probe hit.
//
// A hit costs one tight tag scan, and a miss adds one victim scan. Folding
// the victim bookkeeping into the tag scan made the far more frequent hits
// dearer and measured slower end to end on every hpmpbench workload.
func (c *Cache) probe(pa addr.PA, write, fillDirty bool) bool {
	set, tag := c.index(pa)
	ways := c.set(set)
	if l := lookup(ways, tag); l != nil {
		c.tick++
		l.touch(c.tick)
		if write {
			l.meta |= lineDirty
		}
		*c.hHit++
		return true
	}
	*c.hMiss++
	c.fill(ways, victim(ways), tag, fillDirty)
	return false
}

// fill places tag into way w of a set, counting the eviction (and its
// write-back when dirty) of a valid occupant.
func (c *Cache) fill(ways []line, w int, tag uint64, dirty bool) {
	if v := &ways[w]; v.valid() {
		if v.meta&lineDirty != 0 {
			*c.hWriteback++
		}
		*c.hEvict++
	}
	c.tick++
	ways[w] = line{tag: tag, meta: c.tick << lineStateBits}
	if dirty {
		ways[w].meta |= lineDirty
	}
	*c.hFill++
}

// InvalidateAll flushes the cache (used to build cold-state test cases;
// dirty data is discarded because experiment state is rebuilt afterwards).
func (c *Cache) InvalidateAll() {
	clear(c.lines)
}

// Contains reports presence without touching LRU or counters (for tests and
// state priming checks).
func (c *Cache) Contains(pa addr.PA) bool {
	set, tag := c.index(pa)
	return lookup(c.set(set), tag) != nil
}

// Hierarchy composes L1, L2, LLC and DRAM into a single access path.
// Instruction fetches and data accesses share every level, the L1
// included.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache
	Mem *dram.DRAM
	// ClockRatio converts memory-controller cycles to core cycles (3.2 for
	// BOOM at 3.2 GHz with a 1 GHz controller; 1.0 for Rocket).
	ClockRatio float64

	// hh holds the hierarchy's pre-resolved counter handles. Hierarchies
	// are built with struct literals all over the tree, so the handles are
	// resolved lazily on the first access instead of in a constructor.
	hh hierHandles

	Counters stats.Counters
}

type hierHandles struct {
	l1Hit, l2Hit, llcHit, dram *uint64
}

// handles returns the hierarchy's counter handles, resolving them on first
// use. The check is kept apart from the resolution so it inlines into the
// per-access path.
func (h *Hierarchy) handles() *hierHandles {
	if h.hh.l1Hit == nil {
		h.resolveHandles()
	}
	return &h.hh
}

// resolveHandles resolves all four handles at once, so every snapshot of a
// hierarchy that has run lists every mem.* counter.
func (h *Hierarchy) resolveHandles() {
	h.hh = hierHandles{
		l1Hit:  h.Counters.Handle("mem.l1_hit"),
		l2Hit:  h.Counters.Handle("mem.l2_hit"),
		llcHit: h.Counters.Handle("mem.llc_hit"),
		dram:   h.Counters.Handle("mem.dram_access"),
	}
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
// that misses fills the line in the same probe (inclusive fill); only the
// L1 fill carries the store's dirty bit.
func (h *Hierarchy) access(pa addr.PA, now uint64, write bool, skipL1 bool) AccessResult {
	hh := h.handles()
	var lat uint64
	if !skipL1 {
		lat = h.L1.cfg.Latency
		if h.L1.probe(pa, write, write) {
			*hh.l1Hit++
			return AccessResult{Latency: lat, Level: LvlL1}
		}
	}
	lat += h.L2.cfg.Latency
	if h.L2.probe(pa, write, false) {
		*hh.l2Hit++
		return AccessResult{Latency: lat, Level: LvlL2}
	}
	lat += h.LLC.cfg.Latency
	if h.LLC.probe(pa, write, false) {
		*hh.llcHit++
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
	*hh.dram++
	return AccessResult{Latency: lat, Level: LvlDRAM}
}

// InvalidateAll flushes every level.
func (h *Hierarchy) InvalidateAll() {
	h.L1.InvalidateAll()
	h.L2.InvalidateAll()
	h.LLC.InvalidateAll()
}
