package virt

// TestOracleDifferential drives the production hypervisor and a reference
// model side by side. The reference is the original hand-written nested
// table, guest-table builder, PTE fetch, nested walk and 3-D walk, kept
// verbatim apart from renamed types.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/assoc"
	"hpmp/internal/cpu"
	"hpmp/internal/hpmp"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pt"
	"hpmp/internal/stats"
	"hpmp/internal/tlb"
)

// refNestedTable is the Sv39x4 second-stage table: like Sv39 but the root
// level indexes 11 bits of GPA (a 16 KiB root spanning four contiguous
// pages), supporting a 41-bit guest-physical space.
type refNestedTable struct {
	mem   *phys.Memory
	alloc *phys.FrameAllocator
	root  addr.PA // base of the 4-page root
	pages []addr.PA
}

// newRefNestedTable allocates an empty Sv39x4 table; the 4 root pages are
// taken contiguously from alloc.
func newRefNestedTable(mem *phys.Memory, alloc *phys.FrameAllocator) (*refNestedTable, error) {
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
	nt := &refNestedTable{mem: mem, alloc: alloc, root: root}
	nt.pages = append(nt.pages, root, root+addr.PageSize, root+2*addr.PageSize, root+3*addr.PageSize)
	return nt, nil
}

// Root returns the root base (hgatp target).
func (n *refNestedTable) Root() addr.PA { return n.root }

// PTPages returns every NPT page.
func (n *refNestedTable) PTPages() []addr.PA {
	out := make([]addr.PA, len(n.pages))
	copy(out, n.pages)
	return out
}

// idx computes the per-level index of a GPA: level 2 uses 11 bits.
func (n *refNestedTable) idx(gpa addr.GPA, level int) uint64 {
	shift := addr.PageShift + 9*level
	if level == 2 {
		return (uint64(gpa) >> shift) & 0x7ff
	}
	return (uint64(gpa) >> shift) & 0x1ff
}

// Map installs a 4 KiB GPA→PA mapping.
func (n *refNestedTable) Map(gpa addr.GPA, pa addr.PA, p perm.Perm) error {
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
func (n *refNestedTable) TranslateSW(gpa addr.GPA) (addr.PA, error) {
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
func (n *refNestedTable) WalkPath(gpa addr.GPA) ([]addr.PA, error) {
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

// refGuestTable is the guest's Sv39 page table: its PT pages live in
// guest-physical space and its leaf PTEs hold GPAs.
type refGuestTable struct {
	mem *phys.Memory
	npt *refNestedTable
	// gpaAlloc hands out guest-physical PT frames; hostAlloc provides the
	// backing host frames (contiguous for HPMP-GPT).
	gpaAlloc  *refGPAAllocator
	hostAlloc *phys.FrameAllocator
	rootGPA   addr.GPA
	ptGPAs    []addr.GPA
}

// refGPAAllocator hands out guest-physical frames from a range.
type refGPAAllocator struct {
	base addr.GPA
	next uint64
	max  uint64
}

func (a *refGPAAllocator) alloc() (addr.GPA, error) {
	if a.next >= a.max {
		return 0, fmt.Errorf("virt: guest-physical allocator exhausted")
	}
	g := a.base + addr.GPA(a.next*addr.PageSize)
	a.next++
	return g, nil
}

// newRefGuestTable builds an empty guest Sv39 table. PT pages are allocated
// in guest-physical space starting at gpaBase and backed by host frames
// from hostAlloc (NPT mappings are created as needed).
func newRefGuestTable(mem *phys.Memory, npt *refNestedTable, gpaBase addr.GPA, maxPTPages int, hostAlloc *phys.FrameAllocator) (*refGuestTable, error) {
	g := &refGuestTable{
		mem:       mem,
		npt:       npt,
		gpaAlloc:  &refGPAAllocator{base: gpaBase, max: uint64(maxPTPages)},
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
func (g *refGuestTable) allocPTPage() (addr.GPA, error) {
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
func (g *refGuestTable) PTHostPages() ([]addr.PA, error) {
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
func (g *refGuestTable) read64(gpa addr.GPA) (uint64, error) {
	pa, err := g.npt.TranslateSW(gpa)
	if err != nil {
		return 0, err
	}
	return g.mem.Read64(pa)
}

func (g *refGuestTable) write64(gpa addr.GPA, v uint64) error {
	pa, err := g.npt.TranslateSW(gpa)
	if err != nil {
		return err
	}
	return g.mem.Write64(pa, v)
}

// Map installs a guest mapping gva→gpa with permission p.
func (g *refGuestTable) Map(gva addr.VA, target addr.GPA, p perm.Perm) error {
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

// refHypervisor ties a guest onto a machine: nested walker state, guest TLB,
// and the NPT-translation cache.
type refHypervisor struct {
	Mach    *cpu.Machine
	Checker *hpmp.Checker // physical-memory checker, nil = none
	NPT     *refNestedTable
	Guest   *refGuestTable

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
func (h *refHypervisor) DisableWalkCaches() {
	h.PWC = nil
	h.NPTLB = nil
}

// newRefHypervisor wires a hypervisor for a guest on a machine.
func newRefHypervisor(mach *cpu.Machine, checker *hpmp.Checker, npt *refNestedTable, guest *refGuestTable) *refHypervisor {
	return &refHypervisor{
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
func (h *refHypervisor) HFenceVVMA() {
	h.GTLB.FlushAll()
	if h.PWC != nil {
		h.PWC.FlushAll()
	}
	h.Counters.Inc("virt.hfence_vvma")
}

// HFenceGVMA models hfence.gvma: all second-stage state dies (and with it
// every combined translation).
func (h *refHypervisor) HFenceGVMA() {
	h.GTLB.FlushAll()
	if h.NPTLB != nil {
		h.NPTLB.FlushAll()
	}
	if h.PWC != nil {
		h.PWC.FlushAll()
	}
	h.Counters.Inc("virt.hfence_gvma")
}

// checkPA validates a host physical address, charging table-walk refs. It
// returns the full permission found (for TLB inlining) and whether the
// access kind is allowed.
func (h *refHypervisor) checkPA(pa addr.PA, k perm.Access, now uint64, res *Result) (perm.Perm, bool, error) {
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
func (h *refHypervisor) fetchPTE(pa addr.PA, now uint64, res *Result, nested bool) (uint64, error) {
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
func (h *refHypervisor) nptWalk(gpa addr.GPA, now uint64, res *Result) (addr.PA, bool, error) {
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
// hlv.d), returning the full 3-D walk accounting. A guest-TLB hit checks
// the cached guest permission before the physical one.
func (h *refHypervisor) AccessGuest(gva addr.VA, k perm.Access, now uint64) (Result, error) {
	var res Result
	if e, ok := h.GTLB.Lookup(gva.Frame()); ok {
		if !e.Perm.Allows(k) {
			res.PageFault = true
			return res, nil
		}
		if !e.PhysPerm.Allows(k) {
			res.AccessFault = true
			return res, nil
		}
		r := h.Mach.Hier.Access(addr.PA(e.PFN<<addr.PageShift)+addr.PA(gva.Offset()), now, k == perm.Write)
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
	r := h.Mach.Hier.Access(dataPA, now+res.Latency, k == perm.Write)
	res.Latency += r.Latency
	res.DataRefs = 1
	h.Counters.Inc("virt.guest_access")
	return res, nil
}

var vmodeNames = [...]string{vNone: "none", vPMP: "PMP", vPMPT: "PMPT", vHPMP: "HPMP", vHPMPGPT: "HPMP-GPT"}

// twin is one configuration built twice, on two identical machines: the
// reference model on one, the production hypervisor on the other.
type twin struct {
	t                *testing.T
	refMach, hypMach *cpu.Machine
	ref              *refHypervisor
	hyp              *Hypervisor
	refData, hypData *phys.FrameAllocator
	mapped           []addr.VA
	isMapped         map[addr.VA]bool
	dataPages        int
	// Outcome tally, so a sequence that never walks, hits or faults fails
	// rather than passing vacuously.
	walks, hits, faults int
}

func newTwin(t *testing.T, mode vmode, depth int, caches bool) *twin {
	tw := &twin{t: t, isMapped: map[addr.VA]bool{}}
	// Guest PT host frames: a segment-covered region for HPMP-GPT,
	// otherwise scattered among the data frames, as in fig13.
	hostAllocs := func() (npt, gpt, data *phys.FrameAllocator) {
		npt = phys.NewFrameAllocator(nptRegion, false)
		data = phys.NewFrameAllocator(dataRegion, false)
		gpt = data
		if mode == vHPMPGPT {
			gpt = phys.NewFrameAllocator(gptRegion, false)
		}
		return npt, gpt, data
	}

	tw.refMach = newMachine(t, mode, depth)
	nptAlloc, gptAlloc, dataAlloc := hostAllocs()
	refNPT, err := newRefNestedTable(tw.refMach.Mem, nptAlloc)
	if err != nil {
		t.Fatal(err)
	}
	refGuest, err := newRefGuestTable(tw.refMach.Mem, refNPT, 0x4000_0000, 256, gptAlloc)
	if err != nil {
		t.Fatal(err)
	}
	tw.ref = newRefHypervisor(tw.refMach, checkerFor(tw.refMach, mode), refNPT, refGuest)
	tw.refData = dataAlloc

	tw.hypMach = newMachine(t, mode, depth)
	nptAlloc, gptAlloc, dataAlloc = hostAllocs()
	npt, err := pt.New(tw.hypMach.Mem, nptAlloc, addr.Sv39x4)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := NewGuestTable(tw.hypMach.Mem, npt, 0x4000_0000, 256, gptAlloc)
	if err != nil {
		t.Fatal(err)
	}
	tw.hyp = NewHypervisor(tw.hypMach, checkerFor(tw.hypMach, mode), npt, guest)
	tw.hypData = dataAlloc

	if !caches {
		tw.ref.DisableWalkCaches()
		tw.hyp.DisableWalkCaches()
	}
	return tw
}

// mapPage maps gva with guest permission p on both sides to the next
// guest data page, which the NPT maps read-write; every fourth GPA lies
// past Sv39's reach, behind an extended root index.
func (tw *twin) mapPage(gva addr.VA, p perm.Perm) {
	t := tw.t
	t.Helper()
	gpa := addr.GPA(0x8000_0000 + tw.dataPages*addr.PageSize)
	if tw.dataPages%4 == 3 {
		gpa = addr.GPA(600*addr.GiB + tw.dataPages*addr.PageSize)
	}
	tw.dataPages++
	refPA, err1 := tw.refData.Alloc()
	hypPA, err2 := tw.hypData.Alloc()
	if err1 != nil || err2 != nil || refPA != hypPA {
		t.Fatalf("data frame: ref %v %v, hyp %v %v", refPA, err1, hypPA, err2)
	}
	if err := tw.ref.NPT.Map(gpa, refPA, perm.RW); err != nil {
		t.Fatal(err)
	}
	if err := tw.ref.Guest.Map(gva, gpa, p); err != nil {
		t.Fatal(err)
	}
	if err := tw.hyp.NPT.Map(addr.VA(gpa), hypPA, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	if err := tw.hyp.Guest.Map(gva, addr.PA(gpa), p, true); err != nil {
		t.Fatal(err)
	}
	tw.mapped = append(tw.mapped, gva)
	tw.isMapped[gva] = true
}

// access runs one guest access on both sides, each at its own core clock,
// and requires identical results and clocks.
func (tw *twin) access(op int, gva addr.VA, k perm.Access) {
	t := tw.t
	t.Helper()
	want, err1 := tw.ref.AccessGuest(gva, k, tw.refMach.Core.Now)
	got, err2 := tw.hyp.AccessGuest(gva, k, tw.hypMach.Core.Now)
	if err1 != nil || err2 != nil {
		t.Fatalf("op %d %v %v: ref err %v, hyp err %v", op, k, gva, err1, err2)
	}
	if got != want {
		t.Fatalf("op %d %v %v:\n got %+v\nwant %+v", op, k, gva, got, want)
	}
	switch {
	case got.PageFault || got.AccessFault:
		tw.faults++
	case gtlbHit(got):
		tw.hits++
	default:
		tw.walks++
	}
	tw.refMach.Core.Now += want.Latency
	tw.hypMach.Core.Now += got.Latency
	if tw.refMach.Core.Now != tw.hypMach.Core.Now {
		t.Fatalf("op %d: core clock %d, want %d", op, tw.hypMach.Core.Now, tw.refMach.Core.Now)
	}
}

// checkPTPages compares the page-table page lists of the two builds.
func (tw *twin) checkPTPages() {
	t := tw.t
	t.Helper()
	if got, want := tw.hyp.NPT.PTPages(), tw.ref.NPT.PTPages(); !slices.Equal(got, want) {
		t.Errorf("NPT pages = %v, want %v", got, want)
	}
	var wantGuest []addr.PA
	for _, gpa := range tw.ref.Guest.ptGPAs {
		wantGuest = append(wantGuest, addr.PA(gpa))
	}
	if got := tw.hyp.Guest.PTPages(); !slices.Equal(got, wantGuest) {
		t.Errorf("guest PT pages = %v, want %v", got, wantGuest)
	}
	wantHost, err := tw.ref.Guest.PTHostPages()
	if err != nil {
		t.Fatal(err)
	}
	if got := tw.hyp.Guest.PTHostPages(); !slices.Equal(got, wantHost) {
		t.Errorf("guest PT host pages = %v, want %v", got, wantHost)
	}
}

// randomGVA draws a guest VA that shares table pages with earlier ones at
// varying depths: a dense 4 KiB run, 2 MiB strides and 1 GiB strides.
func randomGVA(rng *rand.Rand) addr.VA {
	switch rng.Intn(3) {
	case 0:
		return addr.VA(0x1000_0000 + rng.Intn(64)*addr.PageSize)
	case 1:
		return addr.VA(0x1000_0000 + rng.Intn(8)*2*addr.MiB + rng.Intn(4)*addr.PageSize)
	default:
		return addr.VA(uint64(1+rng.Intn(6))*addr.GiB + uint64(rng.Intn(4))*addr.PageSize)
	}
}

// TestOracleDifferential replays seeded sequences of guest reads and
// writes, hfence.vvma, hfence.gvma, single-page guest-TLB flushes and new
// mappings on the reference model and the production hypervisor, for every
// isolation method, permission-table depth 2/3/4 and with and without walk
// caches, comparing every Result field and the core clock after each op.
// One guest page is read-only: a write through its cached guest-TLB entry
// must page-fault.
func TestOracleDifferential(t *testing.T) {
	type config struct {
		mode   vmode
		depth  int
		caches bool
	}
	var configs []config
	for _, mode := range []vmode{vNone, vPMP, vPMPT, vHPMP, vHPMPGPT} {
		depths := []int{2, 3, 4}
		if mode == vNone || mode == vPMP {
			depths = []int{2} // no permission table
		}
		for _, depth := range depths {
			for _, caches := range []bool{true, false} {
				configs = append(configs, config{mode, depth, caches})
			}
		}
	}
	ops := 400
	if testing.Short() {
		ops = 100
	}
	for i, c := range configs {
		name := fmt.Sprintf("%s/depth%d/caches=%v", vmodeNames[c.mode], c.depth, c.caches)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1 + i)))
			tw := newTwin(t, c.mode, c.depth, c.caches)
			// Beside randomGVA's dense run, so it shares its table pages.
			readOnly := addr.VA(0x1000_0000 + 64*addr.PageSize)
			tw.mapPage(readOnly, perm.R)
			for len(tw.mapped) < 8 {
				if gva := randomGVA(rng); !tw.isMapped[gva] {
					tw.mapPage(gva, perm.RW)
				}
			}
			tw.checkPTPages()
			tw.access(-2, readOnly, perm.Read)  // walks, caching the guest permission
			tw.access(-1, readOnly, perm.Write) // hits that entry, and faults
			if tw.walks != 1 || tw.faults != 1 {
				t.Fatalf("read-only page: %d walks, %d faults, want 1 and 1", tw.walks, tw.faults)
			}
			for op := 0; op < ops; op++ {
				gva := tw.mapped[rng.Intn(len(tw.mapped))] + addr.VA(rng.Intn(addr.PageSize/8)*8)
				switch r := rng.Intn(100); {
				case r < 45:
					tw.access(op, gva, perm.Read)
				case r < 70:
					tw.access(op, gva, perm.Write)
				case r < 75:
					tw.access(op, randomGVA(rng), perm.Read) // mapped or not
				case r < 80:
					tw.ref.HFenceVVMA()
					tw.hyp.HFenceVVMA()
				case r < 85:
					tw.ref.HFenceGVMA()
					tw.hyp.HFenceGVMA()
				case r < 92:
					tw.ref.GTLB.FlushVPN(gva.Frame())
					tw.hyp.GTLB.FlushVPN(gva.Frame())
				default:
					if gva := randomGVA(rng); !tw.isMapped[gva] {
						tw.mapPage(gva, perm.RW)
					}
				}
			}
			tw.checkPTPages()
			if tw.walks == 0 || tw.hits == 0 || tw.faults == 0 {
				t.Errorf("vacuous sequence: %d walks, %d hits, %d faults", tw.walks, tw.hits, tw.faults)
			}
			t.Logf("%d pages mapped; %d walks, %d hits, %d faults", len(tw.mapped), tw.walks, tw.hits, tw.faults)
		})
	}
}
