package cpu

import (
	"hpmp/internal/addr"
	"hpmp/internal/cache"
	"hpmp/internal/dram"
	"hpmp/internal/hpmp"
	"hpmp/internal/memport"
	"hpmp/internal/mmu"
	"hpmp/internal/obs"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/ptw"
	"hpmp/internal/stats"
)

// Platform bundles the full SoC configuration of one of the two evaluation
// targets (Table 1).
type Platform struct {
	Core Config
	// L1D is the one L1: instruction fetches and data share it.
	L1D  cache.Config
	L2   cache.Config
	LLC  cache.Config
	DRAM dram.Config
	MMU  mmu.Config
	// PMPTWCacheEntries sizes the PMPTW cache; it is built disabled, as in
	// the paper's default methodology (§7), and experiments enable it.
	PMPTWCacheEntries int
	// PMPEntries sizes the PMP/HPMP bank (0 → the base 16; 64 models the
	// ePMP extension of §4.3).
	PMPEntries int
}

// RocketPlatform is the in-order SoC: 1 GHz, 16 KiB L1s, 512 KiB L2, 4 MB
// LLC, 32-entry L1 TLBs, 1024-entry L2 TLB, 8-entry PTECache.
// Capacity structures (caches, TLBs) are scaled down with the scaled
// workload footprints (~100× below the paper's runs; see DESIGN.md) so
// that miss *rates* — which expose the extra-dimensional walks — match the
// paper's regime. Latencies are unscaled.
func RocketPlatform() Platform {
	return Platform{
		Core: Rocket(),
		L1D:  cache.Config{Name: "l1d", Size: 8 * addr.KiB, Ways: 4, LineSize: 64, Latency: 2},
		L2:   cache.Config{Name: "l2", Size: 128 * addr.KiB, Ways: 8, LineSize: 64, Latency: 12},
		LLC:  cache.Config{Name: "llc", Size: 1 * addr.MiB, Ways: 8, LineSize: 64, Latency: 26},
		DRAM: dram.Default(),
		MMU:  rocketMMU(),

		PMPTWCacheEntries: 8,
	}
}

func rocketMMU() mmu.Config {
	c := mmu.DefaultConfig(addr.Sv39)
	c.WalkerBaseline = 10 // walker invocation + replay on the in-order pipe
	return c
}

func boomMMU() mmu.Config {
	c := mmu.DefaultConfig(addr.Sv39)
	c.WalkerBaseline = 24 // OoO pipeline flush/replay on a TLB miss
	return c
}

// BOOMPlatform is the out-of-order SoC: 3.2 GHz, 32 KiB 8-way L1s, 512 KiB
// L2, 4 MB LLC; cache latencies are scaled to the faster clock.
func BOOMPlatform() Platform {
	return Platform{
		Core: BOOM(),
		L1D:  cache.Config{Name: "l1d", Size: 16 * addr.KiB, Ways: 8, LineSize: 64, Latency: 4},
		L2:   cache.Config{Name: "l2", Size: 128 * addr.KiB, Ways: 8, LineSize: 64, Latency: 21},
		LLC:  cache.Config{Name: "llc", Size: 1 * addr.MiB, Ways: 8, LineSize: 64, Latency: 42},
		DRAM: dram.Default(),
		MMU:  boomMMU(),

		PMPTWCacheEntries: 8,
	}
}

// Machine is one assembled hart: core + MMU + caches + DRAM + HPMP checker
// over a simulated physical memory. The secure monitor programs Checker;
// the kernel owns page tables; workloads run on Core.
type Machine struct {
	Plat    Platform
	Mem     *phys.Memory
	Hier    *cache.Hierarchy
	Port    *memport.Timed
	Checker *hpmp.Checker
	MMU     *mmu.MMU
	Core    *Core
	// PMPTWCache is the walker cache instance (disabled by default; nil
	// without isolation).
	PMPTWCache *pmpt.WalkerCache
}

// NewMachine assembles a machine with memSize bytes of physical memory.
// An isolated machine has an HPMP checker that starts with every entry
// off: until the monitor programs it, S/U accesses are denied — exactly
// the secure-boot posture. A machine that is not isolated has no checker
// and no PMPTW cache (Fig. 2-a). Either way the page-table and
// permission-table walkers fetch through a port that skips the L1D.
func NewMachine(plat Platform, memSize uint64, isolated bool) *Machine {
	mem := phys.New(memSize)
	hier := cache.NewHierarchy(cache.New(plat.L1D), cache.New(plat.L2), cache.New(plat.LLC),
		dram.New(plat.DRAM), plat.Core.MemClockRatio)
	m := &Machine{Plat: plat, Mem: mem, Hier: hier, Port: &memport.Timed{Hier: hier, Mem: mem}}
	walkerPort := &memport.Timed{Hier: hier, Mem: mem, SkipL1: true}
	var checker ptw.Checker // a nil *hpmp.Checker must not reach the interface
	if isolated {
		nEntries := plat.PMPEntries
		if nEntries == 0 {
			nEntries = 16
		}
		m.PMPTWCache = pmpt.NewWalkerCache(plat.PMPTWCacheEntries)
		m.Checker = hpmp.NewSized(pmpt.NewWalker(walkerPort, m.PMPTWCache), nEntries)
		checker = m.Checker
	}
	m.MMU = mmu.New(plat.MMU, hier, checker, walkerPort)
	m.Core = NewCore(plat.Core, m.MMU)
	return m
}

// SetTracer attaches (or, with nil, detaches) an observability tracer to
// every translation-path hook of the machine: the MMU's per-access events,
// the page-table walker's PTE fetches, and — when the machine has an HPMP
// checker — its permission checks and pmpte fetches. The tracer follows the
// stats ownership model: it may only be read after the goroutine driving
// the machine has finished.
func (m *Machine) SetTracer(t *obs.Tracer) {
	m.MMU.Trace = t
	m.MMU.Walker.Trace = t
	if c, ok := m.MMU.HPMPChecker(); ok {
		c.Trace = t
		if c.Walker != nil {
			c.Walker.Trace = t
		}
	}
}

// MergeCounters folds every counter set of the machine into into, in a
// fixed order — the one list the experiment harness and the replay engine
// both build their per-machine metrics from.
func (m *Machine) MergeCounters(into *stats.Counters) {
	into.Merge(&m.Core.Counters)
	into.Merge(&m.MMU.Counters)
	into.Merge(&m.MMU.Walker.Counters)
	into.Merge(&m.MMU.ITLB.Counters)
	into.Merge(&m.MMU.DTLB.Counters)
	into.Merge(&m.MMU.STLB.Counters)
	into.Merge(&m.Hier.Counters)
	if chk, ok := m.MMU.HPMPChecker(); ok {
		into.Merge(&chk.Counters)
		if chk.Walker != nil && chk.Walker.Fetched() {
			into.Merge(&chk.Walker.Counters)
		}
	}
}

// EachHistogram calls fn with every cycle-latency histogram of the machine
// and the metrics family it belongs to.
func (m *Machine) EachHistogram(fn func(family string, h *stats.Histogram)) {
	fn("mmu.access_latency", &m.MMU.LatHist)
	fn("ptw.walk_latency", &m.MMU.Walker.Hist)
	if chk, ok := m.MMU.HPMPChecker(); ok {
		fn("hpmp.check_latency", &chk.Hist)
		if chk.Walker != nil {
			fn("pmptw.walk_latency", &chk.Walker.Hist)
		}
	}
}

// ColdReset flushes all caches, TLBs, PWC, PMPTW cache and DRAM row state,
// recreating the TC1 cold environment deterministically.
func (m *Machine) ColdReset() {
	m.Hier.InvalidateAll()
	m.MMU.FlushTLB()
	if m.PMPTWCache != nil {
		m.PMPTWCache.FlushAll()
	}
	m.Hier.Mem.Reset()
}
