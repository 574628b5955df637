package monitor

import (
	"crypto/sha256"
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cache"
	"hpmp/internal/perm"
)

// All mutating operations advance the machine's cycle clock by the cycles
// they cost and return that cost, so experiments can report monitor-op
// latencies (Fig. 14) while workloads keep a consistent timeline.

func (m *Monitor) charge(cycles uint64) uint64 {
	m.Mach.Core.Now += cycles
	return cycles
}

// CreateEnclave creates a new (empty) enclave domain.
func (m *Monitor) CreateEnclave() (DomainID, uint64, error) {
	id := m.nextDom
	m.nextDom++
	d := &Domain{gmss: make(map[GMSID]*GMS)}
	var cycles uint64 = 600 // trap + metadata setup
	if m.tableMode() {
		if err := m.buildDomainTables(d); err != nil {
			return 0, 0, err
		}
		// Zeroing the fresh root tables is part of creation.
		cycles += uint64(len(d.tables)) * 200
	}
	m.domains[id] = d
	m.Counters.Inc("monitor.create_enclave")
	return id, m.charge(cycles), nil
}

// DestroyDomain tears an enclave down: releases all its GMSs (scrubbing
// their memory) and drops its tables. The host cannot be destroyed.
func (m *Monitor) DestroyDomain(id DomainID) (uint64, error) {
	if id == HostDomain {
		return 0, fmt.Errorf("monitor: cannot destroy the host domain")
	}
	d, ok := m.domains[id]
	if !ok {
		return 0, fmt.Errorf("monitor: no domain %d", id)
	}
	if m.current == id {
		return 0, fmt.Errorf("monitor: cannot destroy the running domain")
	}
	var cycles uint64 = 400
	for gid := range d.gmss {
		c, err := m.ReleaseRegion(gid)
		if err != nil {
			return 0, err
		}
		cycles += c
	}
	delete(m.domains, id)
	m.Counters.Inc("monitor.destroy_domain")
	return m.charge(cycles), nil
}

// AddRegion grants a physical region to a domain as a new GMS. The region
// must be page-aligned, inside DRAM, outside the monitor, and must not
// overlap any enclave-owned GMS. For enclaves the host's access to the
// region is revoked.
func (m *Monitor) AddRegion(owner DomainID, region addr.Range, p perm.Perm, label Label) (GMSID, uint64, error) {
	d, ok := m.domains[owner]
	if !ok {
		return 0, 0, fmt.Errorf("monitor: no domain %d", owner)
	}
	if !addr.IsAligned(uint64(region.Base), addr.PageSize) || !addr.IsAligned(region.Size, addr.PageSize) || region.Size == 0 {
		return 0, 0, fmt.Errorf("monitor: region %v must be whole pages", region)
	}
	if region.End() > addr.PA(m.Mach.Mem.Size()) {
		return 0, 0, fmt.Errorf("monitor: region %v beyond DRAM", region)
	}
	if region.Overlaps(monitorRegion) {
		return 0, 0, fmt.Errorf("monitor: region %v overlaps monitor memory", region)
	}
	for _, g := range m.gmss {
		if g.Owner != HostDomain && g.Region.Overlaps(region) {
			return 0, 0, fmt.Errorf("monitor: region %v overlaps GMS %d of domain %d",
				region, g.ID, g.Owner)
		}
	}

	id := m.nextGMS
	m.nextGMS++
	g := &GMS{ID: id, Owner: owner, Region: region, Perm: p, Label: label, segEntry: -1,
		Shared: make(map[DomainID]perm.Perm)}

	var cycles uint64
	if m.tableMode() {
		if err := m.setTablePerm(d, region, p, &cycles); err != nil {
			return 0, 0, err
		}
		if owner != HostDomain {
			host := m.domains[HostDomain]
			if err := m.setTablePerm(host, region, perm.None, &cycles); err != nil {
				return 0, 0, err
			}
		}
		cycles += m.maybeInstallFast(g)
	} else {
		entry, err := m.allocPMPSlot()
		if err != nil {
			return 0, 0, err
		}
		g.segEntry = entry
		m.pmpSlots[entry] = id
		eff := p
		if owner != m.current {
			eff = perm.None
		}
		if !addr.IsPow2(region.Size) || !addr.IsAligned(uint64(region.Base), region.Size) {
			// PMP needs NAPOT (or TOR); reject non-NAPOT grants in PMP mode
			// — one of the granularity limitations HPMP removes.
			delete(m.pmpSlots, entry)
			return 0, 0, fmt.Errorf("monitor: PMP mode requires NAPOT regions, got %v", region)
		}
		if err := m.Mach.Checker.SetSegment(entry, region, eff, false); err != nil {
			delete(m.pmpSlots, entry)
			return 0, 0, err
		}
		cycles += 2 * csrWriteCycles
	}
	cycles += m.flushAfterUpdate()
	d.gmss[id] = g
	m.gmss[id] = g
	m.Counters.Inc("monitor.add_region")
	return id, m.charge(cycles), nil
}

// allocPMPSlot finds a free PMP entry in PMP mode.
func (m *Monitor) allocPMPSlot() (int, error) {
	n := m.Mach.Checker.PMP.NumEntries()
	for e := 1; e < n; e++ {
		if _, used := m.pmpSlots[e]; !used {
			return e, nil
		}
	}
	return 0, fmt.Errorf("monitor: no available PMP entry (all %d in use)", n-1)
}

// ReleaseRegion revokes a GMS: its memory is scrubbed, the owner loses
// access, and (for enclave regions) the host regains it.
func (m *Monitor) ReleaseRegion(id GMSID) (uint64, error) {
	g, ok := m.gmss[id]
	if !ok {
		return 0, fmt.Errorf("monitor: no GMS %d", id)
	}
	d := m.domains[g.Owner]
	var cycles uint64

	// Scrub: a real monitor zeroes pages before returning them. Charge a
	// small per-page cost without flooding the data caches.
	pages := g.Region.Size / addr.PageSize
	cycles += pages * 4
	for pa := g.Region.Base; pa < g.Region.End(); pa += addr.PageSize {
		if err := m.Mach.Mem.ZeroPage(pa); err != nil {
			return 0, err
		}
	}

	if m.tableMode() {
		if err := m.setTablePerm(d, g.Region, perm.None, &cycles); err != nil {
			return 0, err
		}
		if g.Owner != HostDomain {
			host := m.domains[HostDomain]
			if err := m.setTablePerm(host, g.Region, perm.RWX, &cycles); err != nil {
				return 0, err
			}
		}
		cycles += m.removeFast(g)
	} else if g.segEntry >= 0 {
		if err := m.Mach.Checker.Clear(g.segEntry); err != nil {
			return 0, err
		}
		delete(m.pmpSlots, g.segEntry)
		cycles += csrWriteCycles
	}
	cycles += m.flushAfterUpdate()
	delete(d.gmss, id)
	delete(m.gmss, id)
	m.Counters.Inc("monitor.release_region")
	return m.charge(cycles), nil
}

// SetLabel changes a GMS's label — the only GMS property the OS may touch.
// In HPMP mode a fast label installs the GMS into a segment slot (cache
// fill) and a slow label removes it (cache invalidate); the table copy is
// untouched, so this is a pure register operation.
func (m *Monitor) SetLabel(id GMSID, label Label) (uint64, error) {
	g, ok := m.gmss[id]
	if !ok {
		return 0, fmt.Errorf("monitor: no GMS %d", id)
	}
	if g.Label == label {
		return 0, nil
	}
	g.Label = label
	var cycles uint64
	if m.cfg.Mode == ModeHPMP {
		if label == LabelFast {
			cycles += m.maybeInstallFast(g)
		} else {
			cycles += m.removeFast(g)
		}
		cycles += m.flushAfterUpdate()
	}
	m.Counters.Inc("monitor.set_label")
	return m.charge(cycles), nil
}

// maybeInstallFast mirrors a fast GMS of the running domain into a free
// segment slot (HPMP mode). Slots full → the GMS simply stays table-only
// (the cache analogy: a miss that does not evict, §5 keeps policy simple).
func (m *Monitor) maybeInstallFast(g *GMS) uint64 {
	if m.cfg.Mode != ModeHPMP || g.Label != LabelFast || g.Owner != m.current {
		return 0
	}
	if g.segEntry >= 0 {
		return 0
	}
	// Segment slots need NAPOT regions; non-NAPOT fast GMSs stay in the
	// table.
	if !addr.IsPow2(g.Region.Size) || !addr.IsAligned(uint64(g.Region.Base), g.Region.Size) {
		m.Counters.Inc("monitor.fast_skip_napot")
		return 0
	}
	for slot := 0; slot < m.fastCount; slot++ {
		if m.fastSlots[slot] == -1 {
			entry := m.fastBase + slot
			if err := m.Mach.Checker.SetSegment(entry, g.Region, g.Perm, false); err != nil {
				m.Counters.Inc("monitor.fast_install_fail")
				return 0
			}
			m.fastSlots[slot] = g.ID
			g.segEntry = entry
			m.Counters.Inc("monitor.fast_install")
			return 2 * csrWriteCycles
		}
	}
	m.Counters.Inc("monitor.fast_full")
	return 0
}

// removeFast evicts a GMS from its segment slot.
func (m *Monitor) removeFast(g *GMS) uint64 {
	if g.segEntry < 0 {
		return 0
	}
	slot := g.segEntry - m.fastBase
	if slot >= 0 && slot < m.fastCount {
		m.fastSlots[slot] = -1
	}
	if err := m.Mach.Checker.Clear(g.segEntry); err == nil {
		g.segEntry = -1
	}
	m.Counters.Inc("monitor.fast_evict")
	return csrWriteCycles
}

// Switch transfers execution to another domain, reprogramming the isolation
// hardware. Cost is what Fig. 14-a measures.
func (m *Monitor) Switch(to DomainID) (uint64, error) {
	next, ok := m.domains[to]
	if !ok {
		return 0, fmt.Errorf("monitor: no domain %d", to)
	}
	if to == m.current {
		return 0, nil
	}
	cur := m.domains[m.current]
	cycles := domainSwitchBase

	if m.tableMode() {
		// Evict the outgoing domain's fast segments.
		for _, g := range cur.gmss {
			cycles += m.removeFast(g)
		}
		// Swap the table roots: one register pair per chunk.
		cycles += m.programTables(next)
		m.current = to
		// Install the incoming domain's fast GMSs.
		if m.cfg.Mode == ModeHPMP {
			for _, g := range next.gmss {
				if g.Label == LabelFast {
					cycles += m.maybeInstallFast(g)
				}
			}
		}
	} else {
		// PMP mode: flip outgoing entries to deny, incoming to their perm.
		for _, g := range cur.gmss {
			if g.segEntry >= 0 {
				if err := m.Mach.Checker.SetSegment(g.segEntry, g.Region, perm.None, false); err != nil {
					return 0, err
				}
				cycles += csrWriteCycles
			}
		}
		m.current = to
		for _, g := range next.gmss {
			if g.segEntry >= 0 {
				if err := m.Mach.Checker.SetSegment(g.segEntry, g.Region, g.Perm, false); err != nil {
					return 0, err
				}
				cycles += csrWriteCycles
			}
		}
	}
	cycles += m.flushAfterUpdate()
	m.Counters.Inc("monitor.switch")
	return m.charge(cycles), nil
}

// ShareRegion grants a second domain access to an existing GMS (the
// inter-enclave communication buffer of Fig. 7).
func (m *Monitor) ShareRegion(id GMSID, with DomainID, p perm.Perm) (uint64, error) {
	g, ok := m.gmss[id]
	if !ok {
		return 0, fmt.Errorf("monitor: no GMS %d", id)
	}
	peer, ok := m.domains[with]
	if !ok {
		return 0, fmt.Errorf("monitor: no domain %d", with)
	}
	if !m.tableMode() {
		return 0, fmt.Errorf("monitor: sharing requires table mode (PMP entries are exhausted too quickly)")
	}
	var cycles uint64
	if err := m.setTablePerm(peer, g.Region, p, &cycles); err != nil {
		return 0, err
	}
	g.Shared[with] = p
	cycles += m.flushAfterUpdate()
	m.Counters.Inc("monitor.share_region")
	return m.charge(cycles), nil
}

// SendMessage copies a payload into the target domain's mailbox
// (monitor-mediated IPC). Cost: trap + per-cache-line copy.
func (m *Monitor) SendMessage(to DomainID, payload []byte) (uint64, error) {
	d, ok := m.domains[to]
	if !ok {
		return 0, fmt.Errorf("monitor: no domain %d", to)
	}
	msg := make([]byte, len(payload))
	copy(msg, payload)
	d.mailbox = append(d.mailbox, msg)
	lines := uint64(len(payload)+cache.LineSize-1) / cache.LineSize
	cycles := 300 + lines*8
	m.Counters.Inc("monitor.ipc_send")
	return m.charge(cycles), nil
}

// ReceiveMessage pops the oldest message from a domain's mailbox.
func (m *Monitor) ReceiveMessage(id DomainID) ([]byte, uint64, error) {
	d, ok := m.domains[id]
	if !ok {
		return nil, 0, fmt.Errorf("monitor: no domain %d", id)
	}
	if len(d.mailbox) == 0 {
		return nil, m.charge(120), nil
	}
	msg := d.mailbox[0]
	d.mailbox = d.mailbox[1:]
	lines := uint64(len(msg)+cache.LineSize-1) / cache.LineSize
	m.Counters.Inc("monitor.ipc_recv")
	return msg, m.charge(300 + lines*8), nil
}

// Measure computes (and records) the SHA-256 measurement of a domain's
// current memory content, GMS by GMS in region order — the attestation
// anchor.
func (m *Monitor) Measure(id DomainID) ([sha256.Size]byte, error) {
	d, ok := m.domains[id]
	if !ok {
		return [sha256.Size]byte{}, fmt.Errorf("monitor: no domain %d", id)
	}
	h := sha256.New()
	// Deterministic order: ascending GMS id.
	for gid := GMSID(0); gid < m.nextGMS; gid++ {
		g, ok := d.gmss[gid]
		if !ok {
			continue
		}
		buf := make([]byte, addr.PageSize)
		for pa := g.Region.Base; pa < g.Region.End(); pa += addr.PageSize {
			if err := m.Mach.Mem.Read(pa, buf); err != nil {
				return [sha256.Size]byte{}, err
			}
			h.Write(buf)
		}
	}
	copy(d.Measurement[:], h.Sum(nil))
	m.Counters.Inc("monitor.measure")
	return d.Measurement, nil
}
