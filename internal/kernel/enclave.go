package kernel

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
)

// Enclave-hosted processes: the deployment model of the paper's case
// studies (§8.4, §8.5), where each function or service runs inside its own
// Penglai enclave. SpawnEnclave asks the monitor for a fresh domain, donates
// two regions to it — a small NAPOT page-table pool labelled "fast" (the
// enclave-side §5 OS change) and a data region — and builds the process
// entirely out of enclave-owned memory. Scheduling such a process switches
// the domain as well as satp, and Exit destroys the domain.

// enclaveInfo is the per-process enclave state.
type enclaveInfo struct {
	domain  monitor.DomainID
	ptGMS   monitor.GMSID
	dataGMS monitor.GMSID
	ptAlloc *phys.FrameAllocator
	// userAlloc overrides the kernel-wide frame pool.
	userAlloc *phys.FrameAllocator
	region    addr.Range // whole donated block (pt + data)
}

// SpawnEnclave creates a process inside a fresh enclave with the given
// memory budget (rounded up; must leave room for the PT pool). The
// returned process is scheduled like any other via SwitchTo, which also
// performs the domain switch.
func (k *Kernel) SpawnEnclave(img Image, memBytes uint64) (*Process, error) {
	if k.Mon == nil {
		return nil, fmt.Errorf("kernel: enclave processes need a secure monitor")
	}
	const ptPool = 1 * addr.MiB
	if memBytes < 4*addr.MiB {
		memBytes = 4 * addr.MiB
	}
	memBytes = addr.AlignUp(memBytes, addr.MiB)

	// Carve the enclave's block from the tail of the user region (grows
	// down, so ordinary host allocations keep growing up).
	block, err := k.carveEnclaveBlock(ptPool + memBytes)
	if err != nil {
		return nil, err
	}
	ptRegion := addr.Range{Base: block.Base, Size: ptPool}
	dataRegion := addr.Range{Base: block.Base + addr.PA(ptPool), Size: memBytes}

	dom, _, err := k.Mon.CreateEnclave(img.Name)
	if err != nil {
		return nil, err
	}
	ptGMS, _, err := k.Mon.AddRegion(dom, ptRegion, perm.RW, monitor.LabelFast)
	if err != nil {
		return nil, err
	}
	dataGMS, _, err := k.Mon.AddRegion(dom, dataRegion, perm.RWX, monitor.LabelSlow)
	if err != nil {
		return nil, err
	}

	enc := &enclaveInfo{
		domain:    dom,
		ptGMS:     ptGMS,
		dataGMS:   dataGMS,
		ptAlloc:   phys.NewFrameAllocator(ptRegion, false),
		userAlloc: phys.NewFrameAllocator(dataRegion, false),
		region:    block,
	}

	// Build the process out of enclave memory.
	p, err := k.newProcess(img.Name, userLayout(img, int(memBytes/addr.PageSize/2)), enc)
	if err != nil {
		return nil, err
	}
	k.Mach.Core.Compute(2500) // enclave loader: copy image, set up runtime
	k.Counters.Inc("kernel.spawn_enclave")
	return p, nil
}

// carveEnclaveBlock takes a MiB-aligned block from the top of the user
// region. Host frames grow upward from the bottom of the same region, so
// the carve refuses to cross the host allocator's high-water mark (and is
// unavailable with a scattered host pool, whose frames are everywhere).
func (k *Kernel) carveEnclaveBlock(size uint64) (addr.Range, error) {
	if k.cfg.ScatterFrames {
		return addr.Range{}, fmt.Errorf("kernel: enclave blocks require a non-scattered user pool")
	}
	size = addr.AlignUp(size, addr.MiB)
	top := addr.AlignDown(uint64(k.cfg.UserRegion.End())-k.enclaveCarved-size, addr.MiB)
	if addr.PA(top) < k.userAlloc.HighWater() {
		return addr.Range{}, fmt.Errorf("kernel: enclave pool would collide with host frames at %v",
			k.userAlloc.HighWater())
	}
	k.enclaveCarved = uint64(k.cfg.UserRegion.End()) - top
	return addr.Range{Base: addr.PA(top), Size: size}, nil
}

// Domain returns the process's enclave domain (HostDomain for ordinary
// processes).
func (p *Process) Domain() monitor.DomainID {
	if p.enclave == nil {
		return monitor.HostDomain
	}
	return p.enclave.domain
}

// IsEnclave reports whether the process runs inside an enclave.
func (p *Process) IsEnclave() bool { return p.enclave != nil }
