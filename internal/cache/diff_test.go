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
	valid, dirty, locked bool
	tag, lru             uint64
}

// refCache is the reference model for the fused probe: a slice-per-set cache
// with the Lookup-then-Fill semantics the hierarchy is specified by. Lookup
// probes (counting a hit or a miss); on a miss a separate Fill scans the set
// again to refresh, then for a free way, then for the LRU unlocked way.
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
	for _, s := range []string{"hit", "miss", "fill", "evict", "writeback", "fill_bypass", "lock_reject"} {
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
		for i := range ways {
			if !ways[i].locked && (vi < 0 || ways[i].lru < ways[vi].lru) {
				vi = i
			}
		}
		if vi < 0 {
			r.counters.Inc(r.name + ".fill_bypass")
			return
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

func (r *refCache) lock(pa addr.PA) bool {
	set, tag := r.index(pa)
	ways := r.data[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].locked = true
			return true
		}
	}
	n := 0
	for i := range ways {
		if ways[i].valid && ways[i].locked {
			n++
		}
	}
	if n >= len(ways)-1 {
		r.counters.Inc(r.name + ".lock_reject")
		return false
	}
	r.fill(pa, false)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].locked = true
			return true
		}
	}
	return false
}

func (r *refCache) unlock(pa addr.PA) {
	set, tag := r.index(pa)
	for i := range r.data[set] {
		if l := &r.data[set][i]; l.valid && l.tag == tag {
			l.locked = false
		}
	}
}

func (r *refCache) touch(pa addr.PA) {
	set, tag := r.index(pa)
	ways := r.data[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			r.tick++
			ways[i].lru = r.tick
			return
		}
	}
	vi := 0
	for i := range ways {
		if !ways[i].valid {
			vi = i
			break
		}
		if ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	r.tick++
	ways[vi] = refLine{valid: true, tag: tag, lru: r.tick}
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

func (r *refCache) lockedLines() int {
	n := 0
	for s := range r.data {
		for _, l := range r.data[s] {
			if l.valid && l.locked {
				n++
			}
		}
	}
	return n
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
// the flat, fused-probe hierarchy and through the Lookup-then-Fill reference,
// and requires identical results, counters, presence and lock accounting
// after every step. The geometries are tiny and the address pool small, so
// conflicts, evictions of dirty and locked lines, and fully locked sets
// (locking lines that are already resident bypasses the one-free-way rule)
// all occur often.
func TestProbeMatchesTwoScanReference(t *testing.T) {
	cfgs := []Config{
		{Name: "l1d", Size: 4 * 64 * 2, Ways: 2, LineSize: 64, Latency: 2},
		{Name: "l2", Size: 8 * 64 * 3, Ways: 3, LineSize: 64, Latency: 12},
		{Name: "llc", Size: 8 * 64 * 4, Ways: 4, LineSize: 64, Latency: 26},
	}
	const lines = 40 // distinct lines in the address pool: 5 per LLC set
	var bypasses, writebacks [3]uint64
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &Hierarchy{L1: New(cfgs[0]), L2: New(cfgs[1]), LLC: New(cfgs[2]),
			Mem: dram.New(dram.Default()), ClockRatio: 3.2}
		ref := &refHierarchy{l1: newRefCache(cfgs[0]), l2: newRefCache(cfgs[1]), llc: newRefCache(cfgs[2]),
			mem: dram.New(dram.Default()), ratio: 3.2}
		levels := []*Cache{h.L1, h.L2, h.LLC}
		refLevels := []*refCache{ref.l1, ref.l2, ref.llc}
		var now uint64
		access := func(seed int64, step int, pa addr.PA, write, skip bool) {
			t.Helper()
			var got AccessResult
			if skip {
				got = h.AccessNoL1(pa, now, write)
			} else {
				got = h.Access(pa, now, write)
			}
			if want := ref.access(pa, now, write, skip); got != want {
				t.Fatalf("seed %d step %d: access(%v, write=%v, skipL1=%v) = %+v, reference %+v",
					seed, step, pa, write, skip, got, want)
			}
			now += got.Latency
		}
		for step := 0; step < 2500; step++ {
			pa := addr.PA(uint64(rng.Intn(lines))*64 + uint64(rng.Intn(64)))
			lv := rng.Intn(3)
			var op string
			switch k := rng.Intn(200); {
			case k < 100:
				write, skip := rng.Intn(3) == 0, rng.Intn(3) == 0
				op = fmt.Sprintf("access(%v, write=%v, skipL1=%v)", pa, write, skip)
				access(seed, step, pa, write, skip)
			case k < 140:
				op = fmt.Sprintf("lock(%s, %v)", levels[lv].cfg.Name, pa)
				// Half the locks land on a line an access just made resident:
				// locking a resident line skips the one-free-way rule, which
				// is how sets become fully locked.
				if rng.Intn(2) == 0 {
					op = "access, then " + op
					access(seed, step, pa, false, false)
				}
				if got, want := levels[lv].Lock(pa), refLevels[lv].lock(pa); got != want {
					t.Fatalf("seed %d step %d %s = %v, reference %v", seed, step, op, got, want)
				}
			case k < 150:
				op = fmt.Sprintf("unlock(%s, %v)", levels[lv].cfg.Name, pa)
				levels[lv].Unlock(pa)
				refLevels[lv].unlock(pa)
			case k < 165:
				op = fmt.Sprintf("touch(%s, %v)", levels[lv].cfg.Name, pa)
				levels[lv].Touch(pa)
				refLevels[lv].touch(pa)
			case k < 177:
				op = fmt.Sprintf("warm(%v)", pa)
				h.Warm(pa)
				ref.l1.touch(pa)
				ref.l2.touch(pa)
				ref.llc.touch(pa)
			case k < 196:
				op = fmt.Sprintf("warmShared(%v)", pa)
				h.WarmShared(pa)
				ref.l2.touch(pa)
				ref.llc.touch(pa)
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
				if got, want := c.LockedLines(), r.lockedLines(); got != want {
					t.Fatalf("seed %d step %d after %s: %s LockedLines %d, reference %d", seed, step, op, c.cfg.Name, got, want)
				}
				for l := 0; l < lines; l++ {
					a := addr.PA(l * 64)
					if got, want := c.Contains(a), r.contains(a); got != want {
						t.Fatalf("seed %d step %d after %s: %s Contains(%v) = %v, reference %v", seed, step, op, c.cfg.Name, a, got, want)
					}
				}
			}
		}
		for i, c := range levels {
			bypasses[i] += c.Counters.Get(c.cfg.Name + ".fill_bypass")
			writebacks[i] += c.Counters.Get(c.cfg.Name + ".writeback")
		}
	}
	// The sequences must have reached the corner cases the test exists for.
	for i, cfg := range cfgs {
		if bypasses[i] == 0 {
			t.Errorf("%s never filled into a fully locked set", cfg.Name)
		}
		if writebacks[i] == 0 {
			t.Errorf("%s never wrote back a dirty line", cfg.Name)
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
