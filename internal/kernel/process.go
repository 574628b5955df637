package kernel

import (
	"fmt"
	"sort"

	"hpmp/internal/addr"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pt"
)

// VMA is one virtual memory area of a process.
type VMA struct {
	Base  addr.VA
	Pages int
	Perm  perm.Perm
}

// End returns the first VA past the area.
func (v VMA) End() addr.VA { return v.Base + addr.VA(v.Pages*addr.PageSize) }

// Contains reports whether va falls inside the area.
func (v VMA) Contains(va addr.VA) bool { return va >= v.Base && va < v.End() }

// mapping records one materialized page of a process.
type mapping struct {
	pa  addr.PA
	cow bool
}

// pageEntry pairs a VA with its mapping for ordered traversal.
type pageEntry struct {
	va addr.VA
	mp *mapping
}

// sortedPages returns the process's materialized pages in ascending VA
// order. Teardown and fork paths must use this instead of ranging over the
// pages map directly: map iteration order is random, and these paths free
// frames (changing the allocator's free-list order) and perform timed PT
// accesses, so a random order makes whole-simulation timing nondeterministic
// run to run.
func (p *Process) sortedPages() []pageEntry {
	entries := make([]pageEntry, 0, len(p.pages))
	for va, mp := range p.pages {
		entries = append(entries, pageEntry{va, mp})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].va < entries[j].va })
	return entries
}

// Process is one user process (or serverless function instance).
type Process struct {
	PID   PID
	Name  string
	Table *pt.Table
	vmas  []VMA
	pages map[addr.VA]*mapping
	// mmapCursor is the next address returned by MMap.
	mmapCursor addr.VA
	// enclave is non-nil for enclave-hosted processes (see enclave.go).
	enclave *enclaveInfo
}

// Standard user layout.
const (
	userCodeBase      addr.VA = 0x0000_0000_0040_0000 // 4 MiB
	userHeapBase      addr.VA = 0x0000_0000_1000_0000
	userStackTop      addr.VA = 0x0000_003f_ffff_f000 // top of Sv39 positive half
	userMmapBase      addr.VA = 0x0000_0020_0000_0000
	defaultStackPages         = 32
)

// Image describes an executable: sizes of its segments in pages.
type Image struct {
	Name      string
	TextPages int
	DataPages int
	// HeapPages is the initially reserved (not materialized) heap span.
	HeapPages int
}

// defaultHeapPages is the heap a host image reserves when it names none.
const defaultHeapPages = 4096

// userLayout returns the standard VMAs of img: text, data, heap (heapPages
// when the image reserves none) and stack.
func userLayout(img Image, heapPages int) []VMA {
	if img.HeapPages != 0 {
		heapPages = img.HeapPages
	}
	return []VMA{
		{Base: userCodeBase, Pages: img.TextPages, Perm: perm.RX},
		{Base: userCodeBase + addr.VA(img.TextPages*addr.PageSize), Pages: img.DataPages, Perm: perm.RW},
		{Base: userHeapBase, Pages: heapPages, Perm: perm.RW},
		{Base: userStackTop - addr.VA(defaultStackPages*addr.PageSize), Pages: defaultStackPages, Perm: perm.RW},
	}
}

// newProcess registers a process with an empty table. A host process's
// table comes from the kernel PT pool and shares the kernel half; an
// enclave's (enc non-nil) comes from the enclave's own PT pool and holds
// no kernel half, because the enclave runtime owns its whole address space.
func (k *Kernel) newProcess(name string, vmas []VMA, enc *enclaveInfo) (*Process, error) {
	ptPool := k.ptAlloc
	if enc != nil {
		ptPool = enc.ptAlloc
	}
	tbl, err := pt.New(k.Mach.Mem, ptPool, addr.Sv39)
	if err != nil {
		return nil, fmt.Errorf("kernel: new process %s: %w", name, err)
	}
	if enc == nil {
		if err := k.shareKernelHalf(tbl.Root()); err != nil {
			return nil, err
		}
	}
	p := &Process{
		PID:        k.nextPID,
		Name:       name,
		Table:      tbl,
		vmas:       vmas,
		pages:      make(map[addr.VA]*mapping),
		mmapCursor: userMmapBase,
		enclave:    enc,
	}
	k.nextPID++
	k.procs[p.PID] = p
	return p, nil
}

// dataPool returns the pool p's demand-paged frames come from: its
// enclave's data pool, or the host pool.
func (k *Kernel) dataPool(p *Process) *phys.FrameAllocator {
	if p.enclave != nil {
		return p.enclave.userAlloc
	}
	return k.userAlloc
}

// releaseFrame drops p's share of the data frame at pa. The last share
// returns the frame to the pool that owns it: the hint window, or p's data
// pool.
func (k *Kernel) releaseFrame(p *Process, pa addr.PA) {
	switch n := k.shares[pa]; {
	case n > 1:
		k.shares[pa] = n - 1
	case n == 1:
		delete(k.shares, pa)
	case k.hintRegion.Contains(pa):
		k.hintAlloc.Free(pa)
	default:
		k.dataPool(p).Free(pa)
	}
}

// unmapPage drops p's materialized page at va: the PTE is cleared, the page
// forgotten and its frame released. The caller flushes the translation.
func (k *Kernel) unmapPage(p *Process, va addr.VA) error {
	k.releaseFrame(p, p.pages[va].pa)
	delete(p.pages, va)
	_, err := p.Table.Unmap(va)
	return err
}

// movePage copies p's page at va (mapped by mp) into a fresh frame from
// pool, maps it there with permission pm, releases the old frame and ends
// any copy-on-write sharing of the page. The caller charges the copy and
// flushes the translation.
func (k *Kernel) movePage(p *Process, va addr.VA, mp *mapping, pool *phys.FrameAllocator, pm perm.Perm) error {
	newPA, err := pool.Alloc()
	if err != nil {
		return err
	}
	buf := make([]byte, addr.PageSize)
	if err := k.Mach.Mem.Read(mp.pa, buf); err != nil {
		return err
	}
	if err := k.Mach.Mem.Write(newPA, buf); err != nil {
		return err
	}
	if err := p.Table.Map(va, newPA, pm, true); err != nil {
		return err
	}
	k.releaseFrame(p, mp.pa)
	mp.pa, mp.cow = newPA, false
	return nil
}

// storeLeafPTE charges the timed store of va's leaf PTE in tbl through the
// cache hierarchy.
func (k *Kernel) storeLeafPTE(tbl *pt.Table, va addr.VA) {
	steps, err := tbl.WalkPath(va)
	if err == nil && len(steps) > 0 {
		r := k.Mach.Hier.Access(steps[len(steps)-1], k.Mach.Core.Now, true)
		k.Mach.Core.Stall(r.Latency)
	}
}

// Spawn creates a new process from an image. Segments are lazily faulted —
// the short-lived serverless cost the paper measures comes from exactly
// these cold-start faults and walks.
func (k *Kernel) Spawn(img Image) (*Process, error) {
	p, err := k.newProcess(img.Name, userLayout(img, defaultHeapPages), nil)
	if err != nil {
		return nil, err
	}
	k.Counters.Inc("kernel.spawn")
	// Creating a process costs kernel work: PCB setup plus the PT root.
	k.Mach.Core.Compute(1500)
	if k.current < 0 {
		// Adopting a root on an idle machine is still a satp write and owes
		// SetRoot's flush contract: after an Exit the TLBs may still hold the
		// dead process's translations, and without a flush the next spawn
		// could be served a stale VPN→PFN from the previous address space.
		// Only the true first adoption (Root == 0: no translation has ever
		// run) skips the flush cost, keeping boot-time behavior unchanged.
		prev := k.Mach.MMU.Root
		k.current = p.PID
		k.Mach.MMU.SetRoot(p.Table.Root())
		if prev != 0 {
			k.Mach.MMU.FlushTLB()
		}
	}
	return p, nil
}

// SwitchTo makes pid the running process: satp switch plus the mandatory
// TLB flush, and — for enclave-hosted processes — the monitor domain
// switch.
func (k *Kernel) SwitchTo(pid PID) error {
	p, ok := k.procs[pid]
	if !ok {
		return fmt.Errorf("kernel: no process %d", pid)
	}
	if k.Mon != nil && k.Mon.Current() != p.Domain() {
		if _, err := k.Mon.Switch(p.Domain()); err != nil {
			return err
		}
	}
	k.current = pid
	k.Mach.MMU.SetRoot(p.Table.Root())
	k.Mach.MMU.FlushTLB()
	k.Mach.Core.Compute(900) // scheduler + register save/restore
	k.Counters.Inc("kernel.ctx_switch")
	return nil
}

// MMap reserves pages of anonymous memory in the process (lazily faulted)
// and returns the base address.
func (p *Process) MMap(pages int, pm perm.Perm) addr.VA {
	base := p.mmapCursor
	p.mmapCursor += addr.VA(pages * addr.PageSize)
	p.vmas = append(p.vmas, VMA{Base: base, Pages: pages, Perm: pm})
	return base
}

// Heap returns the base of the process heap VMA.
func (p *Process) Heap() addr.VA { return userHeapBase }

// Code returns the base of the text VMA.
func (p *Process) Code() addr.VA { return userCodeBase }

// Stack returns the lowest stack address.
func (p *Process) Stack() addr.VA {
	return userStackTop - addr.VA(defaultStackPages*addr.PageSize)
}

// MUnmap removes the VMA starting exactly at base (munmap semantics for
// whole mappings): materialized frames are freed, PTEs cleared, and the
// affected translations flushed.
func (k *Kernel) MUnmap(p *Process, base addr.VA) error {
	idx := -1
	for i, v := range p.vmas {
		if v.Base == base {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("kernel: no VMA at %v", base)
	}
	vma := p.vmas[idx]
	for i := 0; i < vma.Pages; i++ {
		page := vma.Base + addr.VA(i*addr.PageSize)
		if _, ok := p.pages[page]; !ok {
			continue
		}
		if err := k.unmapPage(p, page); err != nil {
			return err
		}
		k.Mach.MMU.FlushVA(page)
	}
	p.vmas = append(p.vmas[:idx], p.vmas[idx+1:]...)
	k.Mach.Core.Compute(600) // the syscall itself
	k.Counters.Inc("kernel.munmap")
	return nil
}

// AddVMAAt installs an anonymous VMA at an explicit address (sparse
// layouts for the fragmentation experiments; real mmap with MAP_FIXED).
func (p *Process) AddVMAAt(base addr.VA, pages int, pm perm.Perm) {
	p.vmas = append(p.vmas, VMA{Base: base.PageBase(), Pages: pages, Perm: pm})
}

// VMAFor finds the VMA containing va.
func (p *Process) VMAFor(va addr.VA) (VMA, bool) { return p.vmaFor(va) }

// vmaFor finds the VMA containing va.
func (p *Process) vmaFor(va addr.VA) (VMA, bool) {
	for _, v := range p.vmas {
		if v.Contains(va) {
			return v, true
		}
	}
	return VMA{}, false
}

// MappedPages returns how many pages the process has materialized.
func (p *Process) MappedPages() int { return len(p.pages) }

// HandleFault services a demand-paging fault at va for process p: allocate
// a zeroed frame, install the PTE (a timed write to the PT page), and
// charge the trap cost.
func (k *Kernel) HandleFault(p *Process, va addr.VA, kind perm.Access) error {
	if p == nil {
		return fmt.Errorf("kernel: fault at %v with no current process", va)
	}
	vma, ok := p.vmaFor(va)
	if !ok {
		return fmt.Errorf("kernel: segfault at %v in %s", va, p.Name)
	}
	page := va.PageBase()
	if _, mapped := p.pages[page]; mapped {
		return fmt.Errorf("kernel: fault on already-mapped page %v", page)
	}
	pa, err := k.dataPool(p).Alloc()
	if err != nil {
		return fmt.Errorf("kernel: out of memory faulting %v: %w", va, err)
	}
	if err := k.Mach.Mem.ZeroPage(pa); err != nil {
		return err
	}
	if err := p.Table.Map(page, pa, vma.Perm, true); err != nil {
		return err
	}
	p.pages[page] = &mapping{pa: pa}
	k.Counters.Inc("kernel.page_fault")

	// Costs: trap + handler compute + the PTE store (timed through the
	// hierarchy) + zeroing the new frame (streamed stores).
	k.Mach.Core.Stall(faultTrapCycles)
	k.storeLeafPTE(p.Table, page)
	k.Mach.Core.Stall(180) // page zeroing with cache-bypassing stores
	return nil
}

// handleCoW resolves a write fault on a copy-on-write page. It reports
// whether the fault was a CoW fault it handled.
func (k *Kernel) handleCoW(p *Process, va addr.VA) (bool, error) {
	if p == nil {
		return false, nil
	}
	page := va.PageBase()
	mp, ok := p.pages[page]
	if !ok || !mp.cow {
		return false, nil
	}
	vma, ok := p.vmaFor(va)
	if !ok || !vma.Perm.Has(perm.W) {
		return false, nil
	}
	if k.shares[mp.pa] > 0 {
		// Still shared: copy the page into a fresh frame.
		if err := k.movePage(p, page, mp, k.dataPool(p), vma.Perm); err != nil {
			return false, err
		}
		k.Mach.Core.Stall(faultTrapCycles + 350) // trap + page copy
	} else {
		// The last owner: writable again in place.
		mp.cow = false
		if err := p.Table.Map(page, mp.pa, vma.Perm, true); err != nil {
			return false, err
		}
		k.Mach.Core.Stall(faultTrapCycles)
	}
	k.Mach.MMU.FlushVA(page)
	k.Counters.Inc("kernel.cow_fault")
	return true, nil
}

// Fork clones the current process: the child shares all frames
// copy-on-write, and every mapped page costs a PT copy touch — the reason
// fork dominates Table 3.
func (k *Kernel) Fork(parent *Process) (*Process, error) {
	if parent.enclave != nil {
		// Enclave runtimes in this model are single-process (as Penglai's
		// enclave SDK is); forking would mix host- and enclave-owned
		// frames.
		return nil, fmt.Errorf("kernel: enclave process %d cannot fork", parent.PID)
	}
	child, err := k.newProcess(parent.Name+"+", append([]VMA(nil), parent.vmas...), nil)
	if err != nil {
		return nil, err
	}
	child.mmapCursor = parent.mmapCursor
	k.Mach.Core.Compute(4000) // task_struct, mm_struct, fd table, ...
	for _, pe := range parent.sortedPages() {
		va, mp := pe.va, pe.mp
		vma, ok := parent.vmaFor(va)
		if !ok {
			continue
		}
		// Downgrade writable mappings to read-only in both (CoW arm).
		childPerm := vma.Perm
		if childPerm.Has(perm.W) {
			childPerm &^= perm.W
			if !mp.cow {
				if err := parent.Table.Protect(va, childPerm); err != nil {
					return nil, err
				}
				mp.cow = true
			}
		}
		if err := child.Table.Map(va, mp.pa, childPerm, true); err != nil {
			return nil, err
		}
		child.pages[va] = &mapping{pa: mp.pa, cow: mp.cow}
		k.shares[mp.pa]++
		// Timed PT touch: the child PTE store.
		k.storeLeafPTE(child.Table, va)
		// Per-page mm bookkeeping (vma/rmap/page structs) in kernel
		// memory — mode-sensitive kernel accesses, as in real fork.
		if err := k.touchKernel(2); err != nil {
			return nil, err
		}
	}
	// The parent's downgraded mappings require a TLB flush.
	k.Mach.MMU.FlushTLB()
	k.Counters.Inc("kernel.fork")
	return child, nil
}

// Exit tears a process down. A host process returns its frames and PT
// pages to their pools; an enclave process leaves its enclave and destroys
// it, which scrubs the whole donated block, and gives the block back.
func (k *Kernel) Exit(pid PID) error {
	p, ok := k.procs[pid]
	if !ok {
		return fmt.Errorf("kernel: no process %d", pid)
	}
	if p.enclave != nil {
		// Leave the enclave before destroying it.
		if k.Mon.Current() == p.enclave.domain {
			if _, err := k.Mon.Switch(monitor.HostDomain); err != nil {
				return err
			}
		}
		k.Mach.Core.Compute(2000)
	} else {
		k.Mach.Core.Compute(2500)
		for _, pe := range p.sortedPages() {
			k.releaseFrame(p, pe.mp.pa)
		}
		for _, ptPage := range p.Table.PTPages() {
			k.ptAlloc.Free(ptPage)
		}
	}
	delete(k.procs, pid)
	if k.current == pid {
		k.current = -1
	}
	if p.enclave == nil {
		k.Counters.Inc("kernel.exit")
		return nil
	}
	if _, err := k.Mon.DestroyDomain(p.enclave.domain); err != nil {
		return err
	}
	k.releaseEnclaveBlock(p.enclave.region)
	k.Counters.Inc("kernel.exit_enclave")
	return nil
}

// Exec replaces the current process image (fork+exec pattern): the old
// user mappings are dropped and fresh VMAs installed.
func (k *Kernel) Exec(p *Process, img Image) error {
	k.Mach.Core.Compute(6000) // ELF load path
	for _, pe := range p.sortedPages() {
		if err := k.unmapPage(p, pe.va); err != nil {
			return err
		}
	}
	p.Name = img.Name
	p.vmas = userLayout(img, defaultHeapPages)
	k.Mach.MMU.FlushTLB()
	k.Counters.Inc("kernel.exec")
	return nil
}
