// Package virt models the virtualized environment of paper §6: a guest
// running under an Sv39 guest page table (vsatp) whose guest-physical
// addresses are translated by an Sv39x4 nested page table (hgatp), with a
// permission table as the third dimension (Fig. 8).
//
// Both tables are pt.Tables and the nested walks and PTE fetches are
// ptw's; this package keeps only the guest-dimension loop of the 3-D walk.
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
	"hpmp/internal/cpu"
	"hpmp/internal/hpmp"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pt"
	"hpmp/internal/ptw"
	"hpmp/internal/tlb"
)

// GuestTable is the guest's Sv39 page table: a pt.Table over guest-physical
// memory, so its PT page addresses and leaf targets are GPAs.
type GuestTable struct {
	*pt.Table
	frames *guestFrames
}

// NewGuestTable builds an empty guest Sv39 table. PT pages take up to
// maxPTPages guest-physical frames from gpaBase up, each backed by a host
// frame from hostAlloc (contiguous for HPMP-GPT) and mapped RW in npt.
func NewGuestTable(mem *phys.Memory, npt *pt.Table, gpaBase addr.GPA, maxPTPages int, hostAlloc pt.FrameSource) (*GuestTable, error) {
	frames := &guestFrames{npt: npt, hostAlloc: hostAlloc, base: gpaBase, max: uint64(maxPTPages)}
	t, err := pt.New(guestMem{mem: mem, npt: npt}, frames, addr.Sv39)
	if err != nil {
		return nil, err
	}
	return &GuestTable{Table: t, frames: frames}, nil
}

// PTHostPages returns the host frames backing the guest PT pages, in
// allocation order.
func (g *GuestTable) PTHostPages() []addr.PA {
	return append([]addr.PA(nil), g.frames.host...)
}

// guestMem is guest-physical memory as the guest table's builder sees it:
// every address is a GPA, translated through the nested table in software.
type guestMem struct {
	mem *phys.Memory
	npt *pt.Table
}

func (g guestMem) hostPA(gpa addr.PA) (addr.PA, error) {
	tr, err := g.npt.TranslateSW(addr.VA(gpa))
	return tr.PA, err
}

func (g guestMem) Read64(gpa addr.PA) (uint64, error) {
	pa, err := g.hostPA(gpa)
	if err != nil {
		return 0, err
	}
	return g.mem.Read64(pa)
}

func (g guestMem) Write64(gpa addr.PA, v uint64) error {
	pa, err := g.hostPA(gpa)
	if err != nil {
		return err
	}
	return g.mem.Write64(pa, v)
}

func (g guestMem) ZeroPage(gpa addr.PA) error {
	pa, err := g.hostPA(gpa)
	if err != nil {
		return err
	}
	return g.mem.ZeroPage(pa)
}

// guestFrames hands out guest PT frames: the next GPA frame of the PT
// window, backed by the next host frame and mapped RW in the nested table.
type guestFrames struct {
	npt       *pt.Table
	hostAlloc pt.FrameSource
	base      addr.GPA
	next, max uint64
	host      []addr.PA // backing host frame of each PT page
}

func (f *guestFrames) Alloc() (addr.PA, error) {
	if f.next >= f.max {
		return 0, fmt.Errorf("virt: guest-physical allocator exhausted")
	}
	gpa := f.base + addr.GPA(f.next*addr.PageSize)
	f.next++
	pa, err := f.hostAlloc.Alloc()
	if err != nil {
		return 0, err
	}
	if err := f.npt.Map(addr.VA(gpa), pa, perm.RW, true); err != nil {
		return 0, err
	}
	f.host = append(f.host, pa)
	return addr.PA(gpa), nil
}

// Hypervisor ties a guest onto a machine: the G-stage walker, the guest TLB
// and the NPT-translation cache.
type Hypervisor struct {
	Mach  *cpu.Machine
	NPT   *pt.Table // Sv39x4 nested table (hgatp)
	Guest *GuestTable

	// GTLB caches gva→host-pa with the guest permission (intersected with
	// the G-stage one) and the inlined physical permission.
	GTLB *tlb.L1
	// NPTLB caches gpa→pa with the NPT leaf permission (the partial-walk
	// cache real H-extension hardware keeps; flushed by hfence.gvma).
	NPTLB *tlb.L1

	// walker does the nested walks and the guest-PTE fetches, checking PT
	// pages through the machine's checker. Its PWC caches PTE words, guest
	// and nested, by host PA and is flushed by both hfences. It is never
	// registered with a runner, so its counters are not reported.
	walker *ptw.Walker
}

// NewHypervisor wires a hypervisor for a guest on a machine. checker
// validates host physical addresses; nil disables isolation.
func NewHypervisor(mach *cpu.Machine, checker *hpmp.Checker, npt *pt.Table, guest *GuestTable) *Hypervisor {
	return &Hypervisor{
		Mach:   mach,
		NPT:    npt,
		Guest:  guest,
		GTLB:   tlb.NewL1("gtlb", 32),
		NPTLB:  tlb.NewL1("nptlb", 64),
		walker: ptw.New(addr.Sv39x4, mach.Port, checker, 16),
	}
}

// DisableWalkCaches removes the PWC and NPTLB so that reference counts
// follow the raw ISA arithmetic (the paper's footnote-1 accounting).
func (h *Hypervisor) DisableWalkCaches() {
	h.walker.PWC = nil
	h.NPTLB = nil
}

// HFenceVVMA models hfence.vvma: guest-VA translations die, GPA→PA state
// survives.
func (h *Hypervisor) HFenceVVMA() {
	h.GTLB.FlushAll()
	h.walker.FlushPWC()
}

// HFenceGVMA models hfence.gvma: all second-stage state dies (and with it
// every combined translation).
func (h *Hypervisor) HFenceGVMA() {
	h.GTLB.FlushAll()
	if h.NPTLB != nil {
		h.NPTLB.FlushAll()
	}
	h.walker.FlushPWC()
}

// Result describes one guest access (hlv.d-style).
type Result struct {
	Latency     uint64
	NPTRefs     int // nested PTE fetches
	GPTRefs     int // guest PTE fetches
	CheckRefs   int // permission-table references (all categories)
	DataRefs    int
	PageFault   bool
	AccessFault bool
}

// TotalRefs returns every memory reference of the access.
func (r Result) TotalRefs() int { return r.NPTRefs + r.GPTRefs + r.CheckRefs + r.DataRefs }

// charge adds one walker sub-result (a nested walk or a guest-PTE fetch) to
// r; ptRefs is the count its PTE fetches go to.
func (r *Result) charge(w *ptw.Result, ptRefs *int) {
	r.Latency += w.Latency
	*ptRefs += w.PTRefs
	r.CheckRefs += w.PTCheckRefs
	r.PageFault = r.PageFault || w.PageFault
	r.AccessFault = r.AccessFault || w.AccessFault
}

// checkPA validates a host physical address, charging table-walk refs. It
// returns the full permission found (for TLB inlining) and whether the
// access kind is allowed.
func (h *Hypervisor) checkPA(pa addr.PA, k perm.Access, now uint64, res *Result) (perm.Perm, bool, error) {
	if h.walker.Checker == nil {
		return perm.RWX, true, nil
	}
	chk, err := h.walker.Checker.Check(pa.PageBase(), addr.PageSize, k, perm.S, now)
	if err != nil {
		return perm.None, false, err
	}
	res.Latency += chk.Latency
	res.CheckRefs += chk.MemRefs
	return chk.PermFound, chk.Allowed, nil
}

// translateGPA is the G-stage translation of gpa for an access of kind k:
// the NPTLB, else a nested walk. It returns the host PA and the NPT leaf
// permission. An unmapped GPA, or a leaf that does not allow k, sets
// res.PageFault; a denied nested PT-page check sets res.AccessFault.
func (h *Hypervisor) translateGPA(gpa addr.GPA, k perm.Access, now uint64, res *Result) (addr.PA, perm.Perm, error) {
	var e tlb.Entry
	hit := false
	if h.NPTLB != nil {
		var p *tlb.Entry
		if p, hit = h.NPTLB.Lookup(gpa.Frame()); hit {
			e = *p
		}
	}
	if !hit {
		var w ptw.Result
		err := h.walker.WalkInto(h.NPT.Root(), addr.VA(gpa), now+res.Latency, &w)
		res.charge(&w, &res.NPTRefs)
		if err != nil || res.PageFault || res.AccessFault {
			return 0, perm.None, err
		}
		e = tlb.Entry{PFN: w.Translation.PA.Frame(), Perm: w.Translation.Perm}
		if h.NPTLB != nil {
			h.NPTLB.Insert(gpa.Frame(), e)
		}
	}
	if !e.Perm.Allows(k) {
		res.PageFault = true
		return 0, perm.None, nil
	}
	return addr.PA(e.PFN<<addr.PageShift) + addr.PA(gpa.Offset()), e.Perm, nil
}

// dataAccess performs the data reference at pa.
func (h *Hypervisor) dataAccess(res *Result, pa addr.PA, k perm.Access, now uint64) {
	r := h.Mach.Hier.Access(pa, now+res.Latency, k == perm.Write)
	res.Latency += r.Latency
	res.DataRefs = 1
}

// AccessGuest performs one guest data access at gva (the experiment's
// hlv.d), returning the full 3-D walk accounting. A guest-TLB hit checks the
// cached guest permission, then the inlined physical one, as the MMU does.
func (h *Hypervisor) AccessGuest(gva addr.VA, k perm.Access, now uint64) (Result, error) {
	var res Result
	if e, ok := h.GTLB.Lookup(gva.Frame()); ok {
		switch {
		case !e.Perm.Allows(k):
			res.PageFault = true
		case !e.PhysPerm.Allows(k):
			res.AccessFault = true
		default:
			h.dataAccess(&res, addr.PA(e.PFN<<addr.PageShift)+addr.PA(gva.Offset()), k, now)
		}
		return res, nil
	}

	// Guest page-table walk: each gPTE address is a GPA needing a nested
	// walk (its NPT leaf must allow reads), then the gPTE fetch itself. It
	// ends at a leaf; a level-0 pointer faults.
	mode := h.Guest.Mode
	base := addr.GPA(h.Guest.Root())
	var leaf pt.PTE
	level := mode.Levels() - 1
	for {
		gptePA, _, err := h.translateGPA(base+addr.GPA(mode.VPN(gva, level)*8), perm.Read, now, &res)
		if err != nil || res.PageFault || res.AccessFault {
			return res, err
		}
		var w ptw.Result
		raw, _, err := h.walker.FetchPTE(gptePA, now+res.Latency, &w)
		res.charge(&w, &res.GPTRefs)
		if err != nil || res.AccessFault {
			return res, err
		}
		e := pt.PTE(raw)
		if !e.Valid() || (level == 0 && !e.Leaf()) {
			res.PageFault = true
			return res, nil
		}
		if e.Leaf() {
			leaf = e
			break
		}
		base = addr.GPA(e.Target())
		level--
	}
	if !leaf.Perm().Allows(k) {
		res.PageFault = true
		return res, nil
	}

	// Final GPA → PA (the NPT leaf must allow k), the data-page check, then
	// the data reference.
	span := uint64(1) << (addr.PageShift + 9*level)
	dataGPA := addr.GPA(uint64(leaf.Target())&^(span-1) | uint64(gva)&(span-1))
	dataPA, gPerm, err := h.translateGPA(dataGPA, k, now, &res)
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
		PFN: dataPA.Frame(), Perm: leaf.Perm() & gPerm, PhysPerm: physPerm, User: true,
	})
	h.dataAccess(&res, dataPA, k, now)
	return res, nil
}
