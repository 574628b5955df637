// Package monitor implements Penglai-HPMP (paper §5): the machine-mode
// secure monitor that owns physical memory isolation. It provides
//
//   - domain (enclave) lifecycle: create, destroy, switch, measure;
//   - the general memory segment (GMS) abstraction: a contiguous region
//     with one permission and an OS-supplied label ("fast"/"slow"); the OS
//     may change labels but never ranges or permissions;
//   - cache-like HPMP management: "fast" GMSs of the running domain are
//     mirrored into low-numbered segment entries while *all* GMSs live in
//     the per-domain permission tables, so a label change or domain switch
//     is a register rewrite, not a table rebuild;
//   - three isolation modes for the evaluation: ModePMP (Penglai-PMP
//     baseline), ModePMPT (Penglai with permission tables only), and
//     ModeHPMP (the paper's system).
//
// Every mutating operation returns the number of cycles the monitor spent,
// built from register-write costs, mandatory TLB/PMPTW flushes, and timed
// permission-table edits through the cache hierarchy — the cost model behind
// the Fig. 14 experiments.
package monitor

import (
	"crypto/sha256"
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmp"
	"hpmp/internal/pmpt"
	"hpmp/internal/stats"
)

// Mode selects the isolation mechanism.
type Mode int

const (
	// ModePMP is the Penglai-PMP baseline: segments only.
	ModePMP Mode = iota
	// ModePMPT uses permission tables for everything (Penglai-PMPT).
	ModePMPT
	// ModeHPMP is the hybrid: tables plus fast segments (Penglai-HPMP).
	ModeHPMP
)

func (m Mode) String() string {
	switch m {
	case ModePMP:
		return "PMP"
	case ModePMPT:
		return "PMPT"
	case ModeHPMP:
		return "HPMP"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Label is the OS-supplied GMS hint.
type Label int

const (
	LabelSlow Label = iota
	LabelFast
)

func (l Label) String() string {
	if l == LabelFast {
		return "fast"
	}
	return "slow"
}

// DomainID identifies a domain. The Host is always domain 0.
type DomainID int

// HostDomain is the default domain booted with the system.
const HostDomain DomainID = 0

// GMSID identifies a general memory segment.
type GMSID int

// GMS is one general memory segment.
type GMS struct {
	ID     GMSID
	Owner  DomainID
	Region addr.Range
	Perm   perm.Perm
	Label  Label
	// Shared lists other domains granted access (inter-enclave sharing).
	Shared map[DomainID]perm.Perm
	// segEntry is the PMP/HPMP entry currently mirroring this GMS, or -1.
	segEntry int
}

// Domain is one isolated execution domain. The monitor keys it by its
// DomainID; HostDomain is the host.
type Domain struct {
	// tables hold the domain's permission view, one per 16 GiB chunk of
	// physical memory (table modes only).
	tables []*pmpt.Table
	gmss   map[GMSID]*GMS
	// Measurement is the SHA-256 of the domain's initial memory content.
	Measurement [sha256.Size]byte
	// mailbox backs monitor-mediated inter-domain messaging.
	mailbox [][]byte
}

// Config tunes the monitor.
type Config struct {
	Mode Mode
	// HugeTableRanges enables the 32 MiB huge-entry optimization for
	// region permissions (§8.7); per-domain data stays paged.
	HugeTableRanges bool
}

const (
	// csrWriteCycles is the cost of one HPMP/PMP register write.
	csrWriteCycles uint64 = 3
	// tlbFlushCycles is the fixed cost of the mandatory TLB + PMPTW flush
	// after an HPMP update (§5: supported by existing TEEs, no extra
	// synchronization cost beyond the flush itself).
	tlbFlushCycles uint64 = 48
	// domainSwitchBase is the fixed trap/save/restore cost of a switch.
	domainSwitchBase uint64 = 400
)

// monitorRegion is the monitor's private memory: locked off from S/U and
// the source of permission-table pages. It is NAPOT, as entry 0's segment
// needs. Nothing writes it.
var monitorRegion = addr.Range{Base: 0, Size: 16 * addr.MiB}

// DefaultConfig returns a standard monitor configuration for the given
// mode.
func DefaultConfig(mode Mode) Config {
	return Config{Mode: mode}
}

// Monitor is the Penglai-HPMP secure monitor instance for one machine.
type Monitor struct {
	Mach *cpu.Machine
	cfg  Config

	domains map[DomainID]*Domain
	nextDom DomainID
	nextGMS GMSID
	gmss    map[GMSID]*GMS
	current DomainID

	// tblAlloc hands out monitor-private pages for permission tables.
	tblAlloc *phys.FrameAllocator
	// chunks are the 16 GiB table regions covering physical memory.
	chunks []addr.Range

	// Entry layout.
	monitorEntry int // always 0
	fastBase     int // first fast-segment slot (HPMP)
	fastCount    int
	tableBase    int // first entry of the table pairs

	// fastSlots tracks which GMS occupies each fast slot (HPMP mode).
	fastSlots []GMSID

	// pmpSlots maps PMP-mode entries to the GMS resident there.
	pmpSlots map[int]GMSID

	Counters stats.Counters
}

// Boot installs the monitor on a machine: it locks its private region away
// from S/U software, builds the Host domain, and programs the isolation
// hardware for the selected mode. It returns the booted monitor.
func Boot(mach *cpu.Machine, cfg Config) (*Monitor, error) {
	if mach.Checker == nil {
		return nil, fmt.Errorf("monitor: machine has no HPMP checker")
	}
	m := &Monitor{
		Mach:     mach,
		cfg:      cfg,
		domains:  make(map[DomainID]*Domain),
		gmss:     make(map[GMSID]*GMS),
		tblAlloc: phys.NewFrameAllocator(monitorRegion, false),
		pmpSlots: make(map[int]GMSID),
	}
	// Reserve the first frames of the monitor region for monitor
	// code/data so table pages do not start at the region base.
	if _, err := m.tblAlloc.AllocN(16); err != nil {
		return nil, err
	}

	// Entry 0: the monitor's own memory, locked, no S/U permission.
	if err := mach.Checker.SetSegment(m.monitorEntry, monitorRegion, perm.None, true); err != nil {
		return nil, fmt.Errorf("monitor: locking monitor region: %w", err)
	}

	memSize := mach.Mem.Size()
	for base := uint64(0); base < memSize; base += pmpt.MaxRegion {
		size := memSize - base
		if size > pmpt.MaxRegion {
			size = pmpt.MaxRegion
		}
		// Table regions must be NAPOT for the entry's addr register.
		size = addr.NAPOTCeil(size)
		m.chunks = append(m.chunks, addr.Range{Base: addr.PA(base), Size: size})
	}

	nEntries := mach.Checker.PMP.NumEntries()
	switch cfg.Mode {
	case ModePMP:
		m.fastBase, m.fastCount = 1, 0
		m.tableBase = nEntries // none
	case ModePMPT:
		m.fastBase, m.fastCount = 1, 0
		m.tableBase = 1
	case ModeHPMP:
		// Fast segments take whatever entries remain after the monitor
		// entry and the table pairs.
		m.fastBase, m.fastCount = 1, nEntries-1-2*len(m.chunks)
		m.tableBase = m.fastBase + m.fastCount
	}
	if m.tableBase+2*len(m.chunks) > nEntries && cfg.Mode != ModePMP {
		return nil, fmt.Errorf("monitor: %d chunks need %d entries, only %d available",
			len(m.chunks), 2*len(m.chunks), pmp.NumEntries-m.tableBase)
	}
	m.fastSlots = make([]GMSID, m.fastCount)
	for i := range m.fastSlots {
		m.fastSlots[i] = -1
	}

	// Create the Host domain owning all non-monitor memory.
	host := &Domain{gmss: make(map[GMSID]*GMS)}
	m.domains[HostDomain] = host
	m.nextDom = 1
	if m.tableMode() {
		if err := m.buildDomainTables(host); err != nil {
			return nil, err
		}
		// Host initially owns everything outside the monitor region.
		if err := m.grantHostAll(host); err != nil {
			return nil, err
		}
		m.programTables(host)
	} else {
		// PMP mode: the host's background segment lives in the *last*
		// entry. PMP priority is lowest-number-wins, so enclave regions in
		// earlier entries override the catch-all — the standard
		// Penglai-PMP layout.
		hostEntry := nEntries - 1
		hostID := m.nextGMS
		m.nextGMS++
		g := &GMS{
			ID: hostID, Owner: HostDomain,
			Region:   addr.Range{Base: 0, Size: addr.NAPOTCeil(memSize)},
			Perm:     perm.RWX,
			segEntry: hostEntry,
		}
		host.gmss[hostID] = g
		m.gmss[hostID] = g
		m.pmpSlots[hostEntry] = hostID
		if err := mach.Checker.SetSegment(hostEntry, g.Region, g.Perm, false); err != nil {
			return nil, err
		}
	}
	m.flushAfterUpdate()
	m.Counters.Inc("monitor.boot")
	return m, nil
}

func (m *Monitor) tableMode() bool { return m.cfg.Mode != ModePMP }

// Mode returns the isolation mode the monitor was booted with.
func (m *Monitor) Mode() Mode { return m.cfg.Mode }

// Current returns the running domain.
func (m *Monitor) Current() DomainID { return m.current }

// NumDomains returns the live domain count (including the host).
func (m *Monitor) NumDomains() int { return len(m.domains) }

// buildDomainTables allocates all-deny permission tables for every memory
// chunk of a domain.
func (m *Monitor) buildDomainTables(d *Domain) error {
	for _, chunk := range m.chunks {
		t, err := pmpt.NewTable(m.Mach.Mem, m.tblAlloc, chunk)
		if err != nil {
			return fmt.Errorf("monitor: building table for %v: %w", chunk, err)
		}
		d.tables = append(d.tables, t)
	}
	return nil
}

// grantHostAll marks all memory outside the monitor region accessible in
// the host's tables.
func (m *Monitor) grantHostAll(host *Domain) error {
	memSize := m.Mach.Mem.Size()
	ranges := splitAround(addr.Range{Base: 0, Size: memSize}, monitorRegion)
	for _, r := range ranges {
		// Always paged: the host's view is edited at page granularity every
		// time an enclave takes or returns memory, so huge entries here
		// would immediately demote (and the demotion cost would be charged
		// to the wrong operation).
		for _, t := range host.tables {
			if !t.Region().Overlaps(r) {
				continue
			}
			if err := t.SetRangePermPaged(intersect(t.Region(), r), perm.RWX); err != nil {
				return err
			}
		}
	}
	hostID := m.nextGMS
	m.nextGMS++
	g := &GMS{ID: hostID, Owner: HostDomain, Region: addr.Range{Base: 0, Size: memSize}, Perm: perm.RWX}
	g.segEntry = -1
	host.gmss[hostID] = g
	m.gmss[hostID] = g
	return nil
}

// splitAround returns r minus hole (0, 1, or 2 pieces).
func splitAround(r, hole addr.Range) []addr.Range {
	var out []addr.Range
	if hole.Base > r.Base {
		out = append(out, addr.Range{Base: r.Base, Size: uint64(hole.Base - r.Base)})
	}
	if hole.End() < r.End() {
		out = append(out, addr.Range{Base: hole.End(), Size: uint64(r.End() - hole.End())})
	}
	return out
}

// setTablePerm applies a permission over a range in a domain's tables,
// charging timed writes when cost is non-nil.
func (m *Monitor) setTablePerm(d *Domain, r addr.Range, p perm.Perm, cost *uint64) error {
	for _, t := range d.tables {
		if !t.Region().Overlaps(r) {
			continue
		}
		sub := intersect(t.Region(), r)
		if cost != nil {
			restore := m.traceTable(t, cost)
			defer restore()
		}
		var err error
		if m.cfg.HugeTableRanges {
			err = t.SetRangePerm(sub, p)
		} else {
			err = t.SetRangePermPaged(sub, p)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func intersect(a, b addr.Range) addr.Range {
	lo := a.Base
	if b.Base > lo {
		lo = b.Base
	}
	hi := a.End()
	if b.End() < hi {
		hi = b.End()
	}
	if hi <= lo {
		return addr.Range{}
	}
	return addr.Range{Base: lo, Size: uint64(hi - lo)}
}

// traceTable attaches a write tracer to t charging each pmpte write through
// the cache hierarchy; the returned func detaches it.
func (m *Monitor) traceTable(t *pmpt.Table, cost *uint64) func() {
	t.Trace = func(pa addr.PA, write bool) {
		r := m.Mach.Hier.Access(pa, m.Mach.Core.Now+*cost, write)
		*cost += r.Latency
	}
	return func() { t.Trace = nil }
}

// programTables points the HPMP table entries at a domain's tables.
func (m *Monitor) programTables(d *Domain) uint64 {
	var cycles uint64
	for i, t := range d.tables {
		entry := m.tableBase + 2*i
		if err := m.Mach.Checker.SetTable(entry, t.Region(), t.RootBase()); err != nil {
			// Programming can only fail on layout bugs; surface loudly.
			panic(fmt.Sprintf("monitor: programming table entry %d: %v", entry, err))
		}
		cycles += 2 * csrWriteCycles // addr+cfg of the pair
	}
	return cycles
}

// flushAfterUpdate performs the mandatory TLB + PMPTW flush and returns its
// cost.
func (m *Monitor) flushAfterUpdate() uint64 {
	m.Mach.MMU.FlushTLB()
	if m.Mach.PMPTWCache != nil {
		m.Mach.PMPTWCache.FlushAll()
	}
	m.Counters.Inc("monitor.flush")
	return tlbFlushCycles
}
