// Package virt models the virtualized environment of paper §6: a guest
// running under an Sv39 guest page table (vsatp) whose guest-physical
// addresses are translated by an Sv39x4 nested page table (hgatp), with a
// permission table as the third dimension (Fig. 8).
//
// Reference arithmetic this package reproduces (asserted by tests):
//
//	3-D walk, no isolation:           16 refs  (12 NPT + 3 gPT + 1 data)
//	+ 2-level permission table:       48 refs  (+24 NPT chk, +6 gPT chk, +2 data chk)
//	+ HPMP (NPT pages in a segment):  24 refs  (saves the 24 NPT checks)
//	+ HPMP-GPT (gPT pages too):       18 refs  (saves 6 more; 2 remain)
package virt

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/assoc"
	"hpmp/internal/cpu"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pt"
	"hpmp/internal/ptw"
	"hpmp/internal/stats"
	"hpmp/internal/tlb"
)

// NestedTable is the Sv39x4 second-stage table: like Sv39 but the root
// level indexes 11 bits of GPA (a 16 KiB root spanning four contiguous
// pages), supporting a 41-bit guest-physical space.
type NestedTable struct {
	mem   *phys.Memory
	alloc *phys.FrameAllocator
	root  addr.PA // base of the 4-page root
	pages []addr.PA
}

// NewNestedTable allocates an empty Sv39x4 table; the 4 root pages are
// taken contiguously from alloc.
func NewNestedTable(mem *phys.Memory, alloc *phys.FrameAllocator) (*NestedTable, error) {
	var root addr.PA
	for i := 0; i < 4; i++ {
		pa, err := alloc.Alloc()
		if err != nil {
			return nil, fmt.Errorf("virt: allocating NPT root: %w", err)
		}
		if i == 0 {
			root = pa
		} else if pa != root+addr.PA(i*addr.PageSize) {
			return nil, fmt.Errorf("virt: NPT root pages not contiguous (allocator must be sequential)")
		}
		if err := mem.ZeroPage(pa); err != nil {
			return nil, err
		}
	}
	nt := &NestedTable{mem: mem, alloc: alloc, root: root}
	nt.pages = append(nt.pages, root, root+addr.PageSize, root+2*addr.PageSize, root+3*addr.PageSize)
	return nt, nil
}

// Root returns the root base (hgatp target).
func (n *NestedTable) Root() addr.PA { return n.root }

// PTPages returns every NPT page.
func (n *NestedTable) PTPages() []addr.PA {
	out := make([]addr.PA, len(n.pages))
	copy(out, n.pages)
	return out
}

// idx computes the per-level index of a GPA: level 2 uses 11 bits.
func (n *NestedTable) idx(gpa addr.GPA, level int) uint64 {
	shift := addr.PageShift + 9*level
	if level == 2 {
		return (uint64(gpa) >> shift) & 0x7ff
	}
	return (uint64(gpa) >> shift) & 0x1ff
}

// Map installs a 4 KiB GPA→PA mapping.
func (n *NestedTable) Map(gpa addr.GPA, pa addr.PA, p perm.Perm) error {
	base := n.root
	for level := 2; level > 0; level-- {
		ea := base + addr.PA(n.idx(gpa, level)*8)
		raw, err := n.mem.Read64(ea)
		if err != nil {
			return err
		}
		e := pt.PTE(raw)
		switch {
		case !e.Valid():
			next, err := n.alloc.Alloc()
			if err != nil {
				return err
			}
			if err := n.mem.ZeroPage(next); err != nil {
				return err
			}
			n.pages = append(n.pages, next)
			if err := n.mem.Write64(ea, uint64(pt.MakePointer(next))); err != nil {
				return err
			}
			base = next
		case e.Leaf():
			return fmt.Errorf("virt: GPA %v already mapped by superpage", gpa)
		default:
			base = e.Target()
		}
	}
	return n.mem.Write64(base+addr.PA(n.idx(gpa, 0)*8), uint64(pt.MakeLeaf(pa, p, true)))
}

// TranslateSW is the untimed software GPA→PA oracle.
func (n *NestedTable) TranslateSW(gpa addr.GPA) (addr.PA, error) {
	base := n.root
	for level := 2; level >= 0; level-- {
		raw, err := n.mem.Read64(base + addr.PA(n.idx(gpa, level)*8))
		if err != nil {
			return 0, err
		}
		e := pt.PTE(raw)
		if !e.Valid() {
			return 0, fmt.Errorf("virt: GPA %v unmapped at level %d", gpa, level)
		}
		if e.Leaf() {
			return e.Target() + addr.PA(gpa.Offset()), nil
		}
		base = e.Target()
	}
	return 0, fmt.Errorf("virt: walk fell through for %v", gpa)
}

// WalkPath returns the host-physical PTE addresses of the nested walk.
func (n *NestedTable) WalkPath(gpa addr.GPA) ([]addr.PA, error) {
	var out []addr.PA
	base := n.root
	for level := 2; level >= 0; level-- {
		ea := base + addr.PA(n.idx(gpa, level)*8)
		out = append(out, ea)
		raw, err := n.mem.Read64(ea)
		if err != nil {
			return out, err
		}
		e := pt.PTE(raw)
		if !e.Valid() || e.Leaf() {
			return out, nil
		}
		base = e.Target()
	}
	return out, nil
}

// GuestTable is the guest's Sv39 page table: its PT pages live in
// guest-physical space and its leaf PTEs hold GPAs.
type GuestTable struct {
	mem *phys.Memory
	npt *NestedTable
	// gpaAlloc hands out guest-physical PT frames; hostAlloc provides the
	// backing host frames (contiguous for HPMP-GPT).
	gpaAlloc  *gpaAllocator
	hostAlloc *phys.FrameAllocator
	rootGPA   addr.GPA
	ptGPAs    []addr.GPA
}

// gpaAllocator hands out guest-physical frames from a range.
type gpaAllocator struct {
	base addr.GPA
	next uint64
	max  uint64
}

func (a *gpaAllocator) alloc() (addr.GPA, error) {
	if a.next >= a.max {
		return 0, fmt.Errorf("virt: guest-physical allocator exhausted")
	}
	g := a.base + addr.GPA(a.next*addr.PageSize)
	a.next++
	return g, nil
}

// NewGuestTable builds an empty guest Sv39 table. PT pages are allocated
// in guest-physical space starting at gpaBase and backed by host frames
// from hostAlloc (NPT mappings are created as needed).
func NewGuestTable(mem *phys.Memory, npt *NestedTable, gpaBase addr.GPA, maxPTPages int, hostAlloc *phys.FrameAllocator) (*GuestTable, error) {
	g := &GuestTable{
		mem:       mem,
		npt:       npt,
		gpaAlloc:  &gpaAllocator{base: gpaBase, max: uint64(maxPTPages)},
		hostAlloc: hostAlloc,
	}
	root, err := g.allocPTPage()
	if err != nil {
		return nil, err
	}
	g.rootGPA = root
	return g, nil
}

// allocPTPage allocates a guest PT page: a GPA frame, a backing host
// frame, and the NPT mapping between them.
func (g *GuestTable) allocPTPage() (addr.GPA, error) {
	gpa, err := g.gpaAlloc.alloc()
	if err != nil {
		return 0, err
	}
	pa, err := g.hostAlloc.Alloc()
	if err != nil {
		return 0, err
	}
	if err := g.mem.ZeroPage(pa); err != nil {
		return 0, err
	}
	if err := g.npt.Map(gpa, pa, perm.RW); err != nil {
		return 0, err
	}
	g.ptGPAs = append(g.ptGPAs, gpa)
	return gpa, nil
}

// PTHostPages returns the host frames backing the guest PT pages.
func (g *GuestTable) PTHostPages() ([]addr.PA, error) {
	var out []addr.PA
	for _, gpa := range g.ptGPAs {
		pa, err := g.npt.TranslateSW(gpa)
		if err != nil {
			return nil, err
		}
		out = append(out, pa)
	}
	return out, nil
}

// read64/write64 access guest-physical addresses through the NPT (software,
// untimed — builder side).
func (g *GuestTable) read64(gpa addr.GPA) (uint64, error) {
	pa, err := g.npt.TranslateSW(gpa)
	if err != nil {
		return 0, err
	}
	return g.mem.Read64(pa)
}

func (g *GuestTable) write64(gpa addr.GPA, v uint64) error {
	pa, err := g.npt.TranslateSW(gpa)
	if err != nil {
		return err
	}
	return g.mem.Write64(pa, v)
}

// Map installs a guest mapping gva→gpa with permission p.
func (g *GuestTable) Map(gva addr.VA, target addr.GPA, p perm.Perm) error {
	if !addr.Sv39.Canonical(gva) {
		return fmt.Errorf("virt: non-canonical guest VA %v", gva)
	}
	base := g.rootGPA
	for level := 2; level > 0; level-- {
		ea := base + addr.GPA(addr.Sv39.VPN(gva, level)*8)
		raw, err := g.read64(ea)
		if err != nil {
			return err
		}
		e := pt.PTE(raw)
		switch {
		case !e.Valid():
			next, err := g.allocPTPage()
			if err != nil {
				return err
			}
			// Guest PTEs hold GPA frame numbers.
			if err := g.write64(ea, uint64(pt.MakePointer(addr.PA(next)))); err != nil {
				return err
			}
			base = next
		case e.Leaf():
			return fmt.Errorf("virt: guest VA %v already mapped by superpage", gva)
		default:
			base = addr.GPA(e.Target())
		}
	}
	ea := base + addr.GPA(addr.Sv39.VPN(gva, 0)*8)
	return g.write64(ea, uint64(pt.MakeLeaf(addr.PA(target), p, true)))
}

// Hypervisor ties a guest onto a machine: nested walker state, guest TLB,
// and the NPT-translation cache.
type Hypervisor struct {
	Mach    *cpu.Machine
	Checker ptw.Checker // physical-memory checker, nil = none
	NPT     *NestedTable
	Guest   *GuestTable

	// GTLB caches gva→host-pa with inlined physical permission.
	GTLB *tlb.L1
	// NPTLB caches gpa→pa (the partial-walk cache real H-extension
	// hardware keeps; flushed by hfence.gvma).
	NPTLB *tlb.L1
	// PWC caches PTE words (guest and nested) by host PA; flushed by both
	// hfences.
	PWC *assoc.Cache

	Counters stats.Counters
}

// DisableWalkCaches removes the PWC and NPTLB so that reference counts
// follow the raw ISA arithmetic (the paper's footnote-1 accounting).
func (h *Hypervisor) DisableWalkCaches() {
	h.PWC = nil
	h.NPTLB = nil
}

// NewHypervisor wires a hypervisor for a guest on a machine.
func NewHypervisor(mach *cpu.Machine, checker ptw.Checker, npt *NestedTable, guest *GuestTable) *Hypervisor {
	return &Hypervisor{
		Mach:    mach,
		Checker: checker,
		NPT:     npt,
		Guest:   guest,
		GTLB:    tlb.NewL1("gtlb", 32),
		NPTLB:   tlb.NewL1("nptlb", 64),
		PWC:     assoc.NewCache(16),
	}
}

// HFenceVVMA models hfence.vvma: guest-VA translations die, GPA→PA state
// survives.
func (h *Hypervisor) HFenceVVMA() {
	h.GTLB.FlushAll()
	if h.PWC != nil {
		h.PWC.FlushAll()
	}
	h.Counters.Inc("virt.hfence_vvma")
}

// HFenceGVMA models hfence.gvma: all second-stage state dies (and with it
// every combined translation).
func (h *Hypervisor) HFenceGVMA() {
	h.GTLB.FlushAll()
	if h.NPTLB != nil {
		h.NPTLB.FlushAll()
	}
	if h.PWC != nil {
		h.PWC.FlushAll()
	}
	h.Counters.Inc("virt.hfence_gvma")
}

// Result describes one guest access (hlv.d-style).
type Result struct {
	PA          addr.PA
	Latency     uint64
	TLBHit      bool
	NPTRefs     int // nested PTE fetches
	GPTRefs     int // guest PTE fetches
	CheckRefs   int // permission-table references (all categories)
	DataRefs    int
	PageFault   bool
	AccessFault bool
}

// TotalRefs returns every memory reference of the access.
func (r Result) TotalRefs() int { return r.NPTRefs + r.GPTRefs + r.CheckRefs + r.DataRefs }

// checkPA validates a host physical address, charging table-walk refs. It
// returns the full permission found (for TLB inlining) and whether the
// access kind is allowed.
func (h *Hypervisor) checkPA(pa addr.PA, k perm.Access, now uint64, res *Result) (perm.Perm, bool, error) {
	if h.Checker == nil {
		return perm.RWX, true, nil
	}
	chk, err := h.Checker.Check(pa.PageBase(), addr.PageSize, k, perm.S, now)
	if err != nil {
		return perm.None, false, err
	}
	res.Latency += chk.Latency
	res.CheckRefs += chk.MemRefs
	return chk.PermFound, chk.Allowed, nil
}

// fetchPTE fetches one PTE word at host PA through PWC → checker → caches.
func (h *Hypervisor) fetchPTE(pa addr.PA, now uint64, res *Result, nested bool) (uint64, error) {
	if h.PWC != nil {
		if v, ok := h.PWC.Lookup(uint64(pa)); ok {
			return v, nil
		}
	}
	_, ok, err := h.checkPA(pa, perm.Read, now+res.Latency, res)
	if err != nil {
		return 0, err
	}
	if !ok {
		res.AccessFault = true
		return 0, nil
	}
	v, lat, err := h.Mach.Port.Read64(pa, now+res.Latency)
	if err != nil {
		return 0, err
	}
	res.Latency += lat
	if nested {
		res.NPTRefs++
	} else {
		res.GPTRefs++
	}
	if h.PWC != nil && pt.PTE(v).Valid() {
		h.PWC.Insert(uint64(pa), v)
	}
	return v, nil
}

// nptWalk translates a GPA to host PA with hardware semantics, consulting
// the NPTLB.
func (h *Hypervisor) nptWalk(gpa addr.GPA, now uint64, res *Result) (addr.PA, bool, error) {
	if h.NPTLB != nil {
		if e, ok := h.NPTLB.Lookup(gpa.Frame()); ok {
			return addr.PA(e.PFN<<addr.PageShift) + addr.PA(gpa.Offset()), true, nil
		}
	}
	base := h.NPT.root
	for level := 2; level >= 0; level-- {
		ea := base + addr.PA(h.NPT.idx(gpa, level)*8)
		raw, err := h.fetchPTE(ea, now, res, true)
		if err != nil || res.AccessFault {
			return 0, false, err
		}
		e := pt.PTE(raw)
		if !e.Valid() {
			res.PageFault = true
			return 0, false, nil
		}
		if e.Leaf() {
			if h.NPTLB != nil {
				h.NPTLB.Insert(gpa.Frame(), tlb.Entry{PFN: e.Target().Frame()})
			}
			return e.Target() + addr.PA(gpa.Offset()), true, nil
		}
		base = e.Target()
	}
	return 0, false, fmt.Errorf("virt: nested walk fell through for %v", gpa)
}

// AccessGuest performs one guest data access at gva (the experiment's
// hlv.d), returning the full 3-D walk accounting.
func (h *Hypervisor) AccessGuest(gva addr.VA, k perm.Access, now uint64) (Result, error) {
	var res Result
	if e, ok := h.GTLB.Lookup(gva.Frame()); ok {
		res.TLBHit = true
		if !e.PhysPerm.Allows(k) {
			res.AccessFault = true
			return res, nil
		}
		res.PA = addr.PA(e.PFN<<addr.PageShift) + addr.PA(gva.Offset())
		r := h.Mach.Hier.Access(res.PA, now, k == perm.Write)
		res.Latency += r.Latency
		res.DataRefs = 1
		return res, nil
	}

	// Guest page-table walk: each gPTE address is a GPA needing a nested
	// walk, then the gPTE fetch itself.
	base := h.Guest.rootGPA
	var leaf pt.PTE
	for level := 2; level >= 0; level-- {
		gpteGPA := base + addr.GPA(addr.Sv39.VPN(gva, level)*8)
		gptePA, _, err := h.nptWalk(gpteGPA, now, &res)
		if err != nil || res.PageFault || res.AccessFault {
			return res, err
		}
		raw, err := h.fetchPTE(gptePA, now, &res, false)
		if err != nil || res.AccessFault {
			return res, err
		}
		e := pt.PTE(raw)
		if !e.Valid() {
			res.PageFault = true
			return res, nil
		}
		if e.Leaf() {
			if !e.Perm().Allows(k) {
				res.PageFault = true
				return res, nil
			}
			leaf = e
			break
		}
		if level == 0 {
			res.PageFault = true
			return res, nil
		}
		base = addr.GPA(e.Target())
	}

	// Final GPA → PA, then the data reference.
	dataGPA := addr.GPA(leaf.Target()) + addr.GPA(gva.Offset())
	dataPA, _, err := h.nptWalk(dataGPA, now, &res)
	if err != nil || res.PageFault || res.AccessFault {
		return res, err
	}
	physPerm, ok, err := h.checkPA(dataPA, k, now+res.Latency, &res)
	if err != nil {
		return res, err
	}
	if !ok {
		res.AccessFault = true
		return res, nil
	}
	h.GTLB.Insert(gva.Frame(), tlb.Entry{
		PFN: dataPA.Frame(), Perm: leaf.Perm(), PhysPerm: physPerm, User: true,
	})
	res.PA = dataPA
	r := h.Mach.Hier.Access(dataPA, now+res.Latency, k == perm.Write)
	res.Latency += r.Latency
	res.DataRefs = 1
	h.Counters.Inc("virt.guest_access")
	return res, nil
}
