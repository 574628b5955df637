// Package simcfg is the single machine-configuration definition shared by
// every entry point that assembles or validates a simulated machine: the
// replay engine (internal/replay), the experiment harness (internal/bench,
// which takes only the memory size from it), the three CLIs (cmd/hpmpsim,
// cmd/hpmptrace, cmd/hpmpsimd), and the HTTP job API (internal/serve).
// Before this package each of those hand-rolled its own
// platform/mode/capacity struct and validation; now there is exactly one
// validated type a service endpoint can accept.
//
// Tri-state cache-geometry semantics (the internal representation, shared
// with the JSON wire format):
//
//	> 0  override the platform's entry count
//	  0  keep the platform default
//	< 0  the structure is absent (zero capacity)
//
// except PMPTWCache, which has no platform default (the paper's default
// methodology leaves the cache out), so:
//
//	> 0  attach a cache with that many entries
//	  0  no cache
//	< 0  invalid
//
// The CLI flag surface uses the historical PR 8 convention instead
// (0 = absent, < 0 = platform default); Flags.Machine performs the
// remapping so every command line keeps its documented meaning.
package simcfg

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
)

// Mode selects the physical-isolation flavour a machine runs under. It
// mirrors the paper's comparison set: no isolation (Fig. 2-a), PMP
// segments (2-b), PMP tables (2-c), and HPMP (Fig. 4: tables plus the
// page-table pool riding a segment).
type Mode string

const (
	ModeNone Mode = "none"
	ModePMP  Mode = "pmp"
	ModePMPT Mode = "pmpt"
	ModeHPMP Mode = "hpmp"
)

// Modes lists every valid Mode, in comparison order.
var Modes = []Mode{ModeNone, ModePMP, ModePMPT, ModeHPMP}

// MonitorMode maps an isolation mode onto the security monitor's mode
// enum. ModeNone has no monitor (the machine runs without a TEE), so the
// second return is false for it and for unknown modes.
func (m Mode) MonitorMode() (monitor.Mode, bool) {
	switch m {
	case ModePMP:
		return monitor.ModePMP, true
	case ModePMPT:
		return monitor.ModePMPT, true
	case ModeHPMP:
		return monitor.ModeHPMP, true
	}
	return 0, false
}

// MinMemSize is the smallest simulated DRAM size any entry point accepts.
// The monitor's table pool, the kernel's page-table pool, the replay
// engine's two 16 MiB top-of-memory pools, and the workload heaps all
// carve fixed regions out of DRAM; below this floor machines fail deep
// inside the allocators instead of at the config. The binding constraint
// is kernel.DefaultConfig's compact layout, whose user region starts at
// 128 MiB: 160 MiB is the smallest PoolAlign multiple that leaves it
// frames to boot with (TestMinMemSizeBoots).
const MinMemSize = 160 * addr.MiB

// MaxMemSize is the largest simulated DRAM size any entry point accepts:
// the reach of the base 2-level permission table (pmpt.Mode2Level), which
// the monitor's table modes cover DRAM with. It is a bound, not a knob:
// above it a boot would size physical memory's radix root for DRAM no
// experiment can protect with the paper's table.
const MaxMemSize = 16 * addr.GiB

// PoolAlign is the DRAM-size granularity: the replay engine carves two
// 16 MiB NAPOT pools off the top of memory, so every machine size is kept
// replay-capable by construction.
const PoolAlign = 32 * addr.MiB

// MaxEntries is the largest entry count Validate accepts for a requested
// L2 TLB, PWC or PMPTW cache: four times Table 1's 1024-entry L2 TLB, the
// largest of the three. It is a bound, not a knob: the structures are
// allocated in full at boot, so without it one request could size them
// past the host's memory.
const MaxEntries = 4096

// Machine is the unified machine configuration. The zero value is not a
// valid machine; start from Default (or call WithDefaults on a partially
// filled value, as the JSON decoder path does).
type Machine struct {
	// Platform is "rocket" (in-order) or "boom" (out-of-order).
	Platform string
	// Mode is the isolation mode.
	Mode Mode
	// MemSize is the machine's DRAM size in bytes. On the JSON wire format
	// it travels as "mem_mib".
	MemSize uint64
	// L2TLBEntries / PWCEntries override the platform's geometry
	// (tri-state, see the package comment).
	L2TLBEntries int
	PWCEntries   int
	// PMPTWCache sizes the permission-table walker cache; 0 means none
	// (see the package comment).
	PMPTWCache int
	// TableDepth is the permission-table depth for ModePMPT/ModeHPMP:
	// 0 or 2 = the base 2-level table, 3/4 = the §4.3 Mode-field extension.
	TableDepth int
}

// Default is the canonical machine: the in-order platform under full HPMP
// isolation at the evaluation's default memory size.
func Default() Machine { return Machine{}.WithDefaults() }

// WithDefaults fills the empty identification fields (platform, mode,
// memory size) with the canonical defaults, leaving everything explicit
// untouched. The tri-state geometry fields already encode "default" as
// zero, so they pass through unchanged.
func (m Machine) WithDefaults() Machine {
	if m.Platform == "" {
		m.Platform = "rocket"
	}
	if m.Mode == "" {
		m.Mode = ModeHPMP
	}
	if m.MemSize == 0 {
		m.MemSize = 512 * addr.MiB
	}
	return m
}

// Validate rejects configurations no entry point can assemble. It is the
// one platform/mode/capacity validation path in the tree.
func (m Machine) Validate() error {
	switch m.Platform {
	case "rocket", "boom":
	default:
		return fmt.Errorf("simcfg: unknown platform %q (want rocket or boom)", m.Platform)
	}
	switch m.Mode {
	case ModeNone, ModePMP, ModePMPT, ModeHPMP:
	default:
		return fmt.Errorf("simcfg: unknown isolation mode %q (want none, pmp, pmpt or hpmp)", m.Mode)
	}
	if m.MemSize < MinMemSize {
		return fmt.Errorf("simcfg: mem size %d MiB is below the %d MiB minimum",
			m.MemSize/addr.MiB, MinMemSize/addr.MiB)
	}
	if m.MemSize > MaxMemSize {
		return fmt.Errorf("simcfg: mem size %d MiB is above the %d MiB maximum",
			m.MemSize/addr.MiB, MaxMemSize/addr.MiB)
	}
	if m.MemSize%PoolAlign != 0 {
		return fmt.Errorf("simcfg: mem size must be a multiple of %d MiB", PoolAlign/addr.MiB)
	}
	for _, g := range []struct {
		name string
		n    int
	}{{"l2tlb", m.L2TLBEntries}, {"pwc", m.PWCEntries}, {"pmptw_cache", m.PMPTWCache}} {
		if g.n > MaxEntries {
			return fmt.Errorf("simcfg: %s of %d entries is above the %d-entry maximum", g.name, g.n, MaxEntries)
		}
	}
	if m.PMPTWCache < 0 {
		return fmt.Errorf("simcfg: pmptw_cache of %d entries is negative (0 means no cache)", m.PMPTWCache)
	}
	if m.L2TLBEntries > 0 && !addr.IsPow2(uint64(m.L2TLBEntries)) {
		return fmt.Errorf("simcfg: l2tlb of %d entries is not a power of two (the L2 TLB is direct-mapped)", m.L2TLBEntries)
	}
	switch m.TableDepth {
	case 0, 2, 3, 4:
	default:
		return fmt.Errorf("simcfg: table depth %d (want 2, 3 or 4)", m.TableDepth)
	}
	if m.TableDepth > 2 && m.Mode != ModePMPT && m.Mode != ModeHPMP {
		return fmt.Errorf("simcfg: table depth %d needs a permission-table mode (pmpt or hpmp)", m.TableDepth)
	}
	return nil
}

// String renders the config compactly ("rocket/hpmp 512MiB depth=2 ...");
// the CLIs print it and metrics notes embed it.
func (m Machine) String() string {
	s := fmt.Sprintf("%s/%s %dMiB", m.Platform, m.Mode, m.MemSize/addr.MiB)
	if m.TableDepth > 2 {
		s += fmt.Sprintf(" depth=%d", m.TableDepth)
	}
	if m.L2TLBEntries != 0 {
		s += fmt.Sprintf(" l2tlb=%d", m.L2TLBEntries)
	}
	if m.PWCEntries != 0 {
		s += fmt.Sprintf(" pwc=%d", m.PWCEntries)
	}
	if m.PMPTWCache != 0 {
		s += fmt.Sprintf(" pmptw-cache=%d", m.PMPTWCache)
	}
	return s
}

// Assemble builds the machine this config describes: named platform,
// tri-state cache-geometry overrides, checker presence (ModeNone machines
// carry no isolation hardware), and the PMPTW cache. Isolation
// *state* (segments, permission tables) is the caller's job — the monitor
// programs it on live systems, the replay engine on replays.
func (m Machine) Assemble() *cpu.Machine {
	plat := cpu.RocketPlatform()
	if m.Platform == "boom" {
		plat = cpu.BOOMPlatform()
	}
	if m.L2TLBEntries > 0 {
		plat.MMU.L2TLBEntries = m.L2TLBEntries
	} else if m.L2TLBEntries < 0 {
		plat.MMU.L2TLBEntries = 0
	}
	if m.PWCEntries > 0 {
		plat.MMU.PWCEntries = m.PWCEntries
	} else if m.PWCEntries < 0 {
		plat.MMU.PWCEntries = 0
	}
	mach := cpu.NewMachine(plat, m.MemSize, m.Mode != ModeNone)
	if m.PMPTWCache > 0 {
		mach.AttachPMPTWCache(m.PMPTWCache)
	}
	return mach
}
