package kernel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

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

	dom := monitor.HostDomain // no enclave domain yet
	// fail undoes a spawn that failed after carving: it destroys the
	// half-built domain, if any, and gives the block back. A block the
	// monitor may still hold regions in stays carved.
	fail := func(err error) (*Process, error) {
		if dom != monitor.HostDomain {
			if _, derr := k.Mon.DestroyDomain(dom); derr != nil {
				return nil, errors.Join(err, derr)
			}
		}
		k.releaseEnclaveBlock(block)
		return nil, err
	}
	if dom, _, err = k.Mon.CreateEnclave(); err != nil {
		return fail(err)
	}
	if _, _, err := k.Mon.AddRegion(dom, ptRegion, perm.RW, monitor.LabelFast); err != nil {
		return fail(err)
	}
	if _, _, err := k.Mon.AddRegion(dom, dataRegion, perm.RWX, monitor.LabelSlow); err != nil {
		return fail(err)
	}

	enc := &enclaveInfo{
		domain:    dom,
		ptAlloc:   phys.NewFrameAllocator(ptRegion, false),
		userAlloc: phys.NewFrameAllocator(dataRegion, false),
		region:    block,
	}

	// Build the process out of enclave memory.
	p, err := k.newProcess(img.Name, userLayout(img, int(memBytes/addr.PageSize/2)), enc)
	if err != nil {
		return fail(err)
	}
	k.Mach.Core.Compute(2500) // enclave loader: copy image, set up runtime
	k.Counters.Inc("kernel.spawn_enclave")
	return p, nil
}

// carveEnclaveBlock takes a MiB-aligned block from the top of the user
// region: the lowest free block given back by an exited enclave that is
// large enough, else a new block below the carve frontier. Host frames grow
// upward from the bottom of the same region, so the frontier refuses to
// cross the host allocator's high-water mark (and carving is unavailable
// with a scattered host pool, whose frames are everywhere).
func (k *Kernel) carveEnclaveBlock(size uint64) (addr.Range, error) {
	if k.cfg.ScatterFrames {
		return addr.Range{}, fmt.Errorf("kernel: enclave blocks require a non-scattered user pool")
	}
	size = addr.AlignUp(size, addr.MiB)
	for i, f := range k.enclaveFree {
		if f.Size < size {
			continue
		}
		k.enclaveFree[i] = addr.Range{Base: f.Base + addr.PA(size), Size: f.Size - size}
		if f.Size == size {
			k.enclaveFree = slices.Delete(k.enclaveFree, i, i+1)
		}
		return addr.Range{Base: f.Base, Size: size}, nil
	}
	frontier := k.carveFrontier()
	if uint64(frontier) < size || frontier-addr.PA(size) < k.userAlloc.HighWater() {
		return addr.Range{}, fmt.Errorf("kernel: enclave pool would collide with host frames at %v",
			k.userAlloc.HighWater())
	}
	k.enclaveCarved += size
	return addr.Range{Base: frontier - addr.PA(size), Size: size}, nil
}

// releaseEnclaveBlock gives an exited enclave's block back. It joins the
// free list, merged with the free blocks it touches, and a free block that
// reaches the carve frontier moves the frontier up instead: once every
// enclave has exited, nothing is carved.
func (k *Kernel) releaseEnclaveBlock(r addr.Range) {
	i, _ := slices.BinarySearchFunc(k.enclaveFree, r.Base, func(f addr.Range, base addr.PA) int {
		return cmp.Compare(f.Base, base)
	})
	k.enclaveFree = slices.Insert(k.enclaveFree, i, r)
	if i+1 < len(k.enclaveFree) && r.End() == k.enclaveFree[i+1].Base {
		k.enclaveFree[i].Size += k.enclaveFree[i+1].Size
		k.enclaveFree = slices.Delete(k.enclaveFree, i+1, i+2)
	}
	if i > 0 && k.enclaveFree[i-1].End() == r.Base {
		k.enclaveFree[i-1].Size += k.enclaveFree[i].Size
		k.enclaveFree = slices.Delete(k.enclaveFree, i, i+1)
	}
	if f := k.enclaveFree[0]; f.Base == k.carveFrontier() {
		k.enclaveCarved -= f.Size
		k.enclaveFree = slices.Delete(k.enclaveFree, 0, 1)
	}
}

// carveFrontier returns the lowest carved address: blocks are carved
// downward from the user region's MiB-aligned end.
func (k *Kernel) carveFrontier() addr.PA {
	return addr.PA(addr.AlignDown(uint64(k.cfg.UserRegion.End()), addr.MiB) - k.enclaveCarved)
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
