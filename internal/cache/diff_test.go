package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/dram"
	"hpmp/internal/stats"
)

// refLine is one line of the reference model, in the plain layout.
type refLine struct {
	valid, dirty bool
	tag, lru     uint64
}

// refCache is the reference model for the fused probe: a slice-per-set cache
// with the Lookup-then-Fill semantics the hierarchy is specified by. Lookup
// probes (counting a hit or a miss); on a miss a separate Fill scans the set
// again to refresh, then for a free way, then for the LRU way.
type refCache struct {
	name     string
	latency  uint64
	sets     uint64
	lineBits uint
	data     [][]refLine
	tick     uint64
	counters stats.Counters
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.Size / cfg.LineSize / uint64(cfg.Ways)
	r := &refCache{name: cfg.Name, latency: cfg.Latency, sets: sets, data: make([][]refLine, sets)}
	for cfg.LineSize>>(r.lineBits+1) > 0 {
		r.lineBits++
	}
	for i := range r.data {
		r.data[i] = make([]refLine, cfg.Ways)
	}
	// Same registration order as New, so the snapshots compare whole.
	for _, s := range []string{"hit", "miss", "fill", "evict", "writeback"} {
		r.counters.Handle(cfg.Name + "." + s)
	}
	return r
}

func (r *refCache) index(pa addr.PA) (set, tag uint64) {
	la := uint64(pa) >> r.lineBits
	return la % r.sets, la / r.sets
}

func (r *refCache) lookup(pa addr.PA, write bool) bool {
	set, tag := r.index(pa)
	for i := range r.data[set] {
		l := &r.data[set][i]
		if l.valid && l.tag == tag {
			r.tick++
			l.lru = r.tick
			l.dirty = l.dirty || write
			r.counters.Inc(r.name + ".hit")
			return true
		}
	}
	r.counters.Inc(r.name + ".miss")
	return false
}

func (r *refCache) fill(pa addr.PA, write bool) {
	set, tag := r.index(pa)
	ways := r.data[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			r.tick++
			ways[i].lru = r.tick
			ways[i].dirty = ways[i].dirty || write
			return
		}
	}
	vi := -1
	for i := range ways {
		if !ways[i].valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		vi = 0
		for i := range ways {
			if ways[i].lru < ways[vi].lru {
				vi = i
			}
		}
		if ways[vi].dirty {
			r.counters.Inc(r.name + ".writeback")
		}
		r.counters.Inc(r.name + ".evict")
	}
	r.tick++
	ways[vi] = refLine{valid: true, dirty: write, tag: tag, lru: r.tick}
	r.counters.Inc(r.name + ".fill")
}

func (r *refCache) invalidateAll() {
	for s := range r.data {
		clear(r.data[s])
	}
}

func (r *refCache) contains(pa addr.PA) bool {
	set, tag := r.index(pa)
	for _, l := range r.data[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// refHierarchy is the reference hierarchy: Lookup down the levels, then Fill
// every level that missed on the way back.
type refHierarchy struct {
	l1, l2, llc *refCache
	mem         *dram.DRAM
	ratio       float64
	counters    stats.Counters
}

func (h *refHierarchy) access(pa addr.PA, now uint64, write, skipL1 bool) AccessResult {
	var lat uint64
	if !skipL1 {
		lat = h.l1.latency
		if h.l1.lookup(pa, write) {
			h.counters.Inc("mem.l1_hit")
			return AccessResult{Latency: lat, Level: LvlL1}
		}
	}
	lat += h.l2.latency
	if h.l2.lookup(pa, write) {
		if !skipL1 {
			h.l1.fill(pa, write)
		}
		h.counters.Inc("mem.l2_hit")
		return AccessResult{Latency: lat, Level: LvlL2}
	}
	lat += h.llc.latency
	if h.llc.lookup(pa, write) {
		h.l2.fill(pa, false)
		if !skipL1 {
			h.l1.fill(pa, write)
		}
		h.counters.Inc("mem.llc_hit")
		return AccessResult{Latency: lat, Level: LvlLLC}
	}
	memNow := uint64(float64(now+lat) / h.ratio)
	done := h.mem.Access(pa, memNow, write)
	dramLat := uint64(float64(done-memNow) * h.ratio)
	if write {
		dramLat += uint64(16 * h.ratio)
	}
	lat += dramLat
	h.llc.fill(pa, false)
	h.l2.fill(pa, false)
	if !skipL1 {
		h.l1.fill(pa, write)
	}
	h.counters.Inc("mem.dram_access")
	return AccessResult{Latency: lat, Level: LvlDRAM}
}

// TestProbeMatchesTwoScanReference drives random operation sequences through
// the chunked, fused-probe hierarchy and through the Lookup-then-Fill
// reference, and requires identical results, counters and presence after
// every step. The address pool is small and every line of it shares its set
// with four others, so conflicts and evictions of dirty lines occur often.
// It runs on levels smaller than one chunk and on levels that span many
// chunks, with the pool's sets spread over them.
func TestProbeMatchesTwoScanReference(t *testing.T) {
	const lines = 40 // distinct lines in the address pool: 5 per LLC set
	oneChunk := make([]addr.PA, lines)
	manyChunks := make([]addr.PA, lines)
	for i := range oneChunk {
		oneChunk[i] = addr.PA(i * 64)
		// Eight set groups 97 sets apart, each holding five tags 2^16 lines
		// apart (a multiple of every level's set count).
		manyChunks[i] = addr.PA((uint64(i%8)*97 + uint64(i/8)<<16) * 64)
	}
	for _, g := range []struct {
		name   string
		cfgs   [3]Config
		pool   []addr.PA
		chunks int // chunks every level must reach
	}{
		{"within-one-chunk", [3]Config{
			{Name: "l1d", Size: 4 * 64 * 2, Ways: 2, LineSize: 64, Latency: 2},
			{Name: "l2", Size: 8 * 64 * 3, Ways: 3, LineSize: 64, Latency: 12},
			{Name: "llc", Size: 8 * 64 * 4, Ways: 4, LineSize: 64, Latency: 26},
		}, oneChunk, 1},
		{"many-chunks", [3]Config{
			{Name: "l1d", Size: 256 * 64 * 2, Ways: 2, LineSize: 64, Latency: 2},
			{Name: "l2", Size: 512 * 64 * 3, Ways: 3, LineSize: 64, Latency: 12},
			{Name: "llc", Size: 1024 * 64 * 4, Ways: 4, LineSize: 64, Latency: 26},
		}, manyChunks, 2},
	} {
		t.Run(g.name, func(t *testing.T) { probeMatchesReference(t, g.cfgs, g.pool, g.chunks) })
	}
}

func probeMatchesReference(t *testing.T, cfgs [3]Config, pool []addr.PA, minChunks int) {
	counters := []string{"hit", "miss", "fill", "evict", "writeback"}
	var moved [3][5]uint64
	chunks := [3]int{}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &Hierarchy{L1: New(cfgs[0]), L2: New(cfgs[1]), LLC: New(cfgs[2]),
			Mem: dram.New(dram.Default()), ClockRatio: 3.2}
		ref := &refHierarchy{l1: newRefCache(cfgs[0]), l2: newRefCache(cfgs[1]), llc: newRefCache(cfgs[2]),
			mem: dram.New(dram.Default()), ratio: 3.2}
		levels := []*Cache{h.L1, h.L2, h.LLC}
		refLevels := []*refCache{ref.l1, ref.l2, ref.llc}
		var now uint64
		for step := 0; step < 2500; step++ {
			pa := pool[rng.Intn(len(pool))] + addr.PA(rng.Intn(64))
			lv := rng.Intn(3)
			var op string
			switch k := rng.Intn(200); {
			case k < 196:
				write, skip := rng.Intn(3) == 0, rng.Intn(3) == 0
				op = fmt.Sprintf("access(%v, write=%v, skipL1=%v)", pa, write, skip)
				var got AccessResult
				if skip {
					got = h.AccessNoL1(pa, now, write)
				} else {
					got = h.Access(pa, now, write)
				}
				if want := ref.access(pa, now, write, skip); got != want {
					t.Fatalf("seed %d step %d: %s = %+v, reference %+v", seed, step, op, got, want)
				}
				now += got.Latency
			case k < 199:
				op = fmt.Sprintf("invalidateAll(%s)", levels[lv].cfg.Name)
				levels[lv].InvalidateAll()
				refLevels[lv].invalidateAll()
			default:
				op = "hierarchy.InvalidateAll"
				h.InvalidateAll()
				for _, r := range refLevels {
					r.invalidateAll()
				}
			}
			for _, name := range []string{"mem.l1_hit", "mem.l2_hit", "mem.llc_hit", "mem.dram_access"} {
				if got, want := h.Counters.Get(name), ref.counters.Get(name); got != want {
					t.Fatalf("seed %d step %d after %s: %s = %d, reference %d", seed, step, op, name, got, want)
				}
			}
			for i, c := range levels {
				r := refLevels[i]
				if got, want := c.Counters.Snapshot(), r.counters.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d after %s: %s counters %v, reference %v", seed, step, op, c.cfg.Name, got, want)
				}
				for _, a := range pool {
					if got, want := c.contains(a), r.contains(a); got != want {
						t.Fatalf("seed %d step %d after %s: %s contains(%v) = %v, reference %v", seed, step, op, c.cfg.Name, a, got, want)
					}
				}
			}
		}
		for i, c := range levels {
			for j, name := range counters {
				moved[i][j] += c.Counters.Get(c.cfg.Name + "." + name)
			}
			chunks[i] = max(chunks[i], c.materialized())
		}
	}
	// The sequences must have reached the cases the test exists for: on
	// every level, hits, misses, fills, evictions, dirty write-backs and
	// the geometry's chunk count.
	for i, cfg := range cfgs {
		for j, name := range counters {
			if moved[i][j] == 0 {
				t.Errorf("%s.%s never moved", cfg.Name, name)
			}
		}
		if chunks[i] < minChunks {
			t.Errorf("%s materialized %d chunks, want at least %d", cfg.Name, chunks[i], minChunks)
		}
	}
}

// TestNewAllocsIndependentOfSets pins the flat layout: building a level costs
// the same number of allocations whatever its set count.
func TestNewAllocsIndependentOfSets(t *testing.T) {
	allocs := func(size uint64) float64 {
		cfg := Config{Name: "c", Size: size, Ways: 8, LineSize: 64, Latency: 1}
		return testing.AllocsPerRun(20, func() { New(cfg) })
	}
	small, large := allocs(8*64), allocs(2048*8*64)
	if small != large {
		t.Errorf("New allocates %v times for 1 set but %v times for 2048 sets", small, large)
	}
}
