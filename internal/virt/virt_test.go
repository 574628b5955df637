package virt

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cache"
	"hpmp/internal/cpu"
	"hpmp/internal/hpmp"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
)

type vmode int

const (
	vNone    vmode = iota // no physical memory isolation
	vPMP                  // segments cover everything
	vPMPT                 // table covers everything
	vHPMP                 // table + segment over NPT pages
	vHPMPGPT              // table + segments over NPT and gPT host pages
)

type rig struct {
	mach *cpu.Machine
	hyp  *Hypervisor
	gva  addr.VA
}

// gtlbHit reports whether a guest access was served by the guest TLB: it
// fetched no guest or nested PTE.
func gtlbHit(res Result) bool { return res.GPTRefs == 0 && res.NPTRefs == 0 }

// dataInL1 reports whether pa's line is in the L1, where only a data
// reference puts it: the walkers fetch from the L2 down.
func (r *rig) dataInL1(pa addr.PA) bool {
	return r.mach.Hier.Access(pa, r.mach.Core.Now, false).Level == cache.LvlL1
}

const memSize = 512 * addr.MiB

// Physical layout for the virtualization experiments.
var (
	nptRegion  = addr.Range{Base: 0x0100_0000, Size: 4 * addr.MiB}  // hypervisor NPT pool
	gptRegion  = addr.Range{Base: 0x0180_0000, Size: 4 * addr.MiB}  // host frames backing gPT pages
	dataRegion = addr.Range{Base: 0x0800_0000, Size: 64 * addr.MiB} // guest data frames
	tblRegion  = addr.Range{Base: 0x0400_0000, Size: 16 * addr.MiB} // permission-table pages
)

// newMachine boots a machine whose checker isolates memory by mode; depth is
// the permission-table depth of the table modes. Depth 2 grants all of DRAM;
// deeper tables grant only the host regions a guest access touches, so every
// uncached check walks the full depth.
func newMachine(t testing.TB, mode vmode, depth int) *cpu.Machine {
	t.Helper()
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	checker := mach.Checker
	all := addr.Range{Base: 0, Size: memSize}
	switch mode {
	case vPMP:
		if err := checker.SetSegment(0, all, perm.RWX, false); err != nil {
			t.Fatal(err)
		}
	case vPMPT, vHPMP, vHPMPGPT:
		tblMode := pmpt.ModeFor(depth)
		ptab, err := pmpt.NewTableMode(mach.Mem, phys.NewFrameAllocator(tblRegion, false), all, tblMode)
		if err != nil {
			t.Fatal(err)
		}
		fill := []addr.Range{all}
		if depth > 2 {
			fill = []addr.Range{nptRegion, gptRegion, dataRegion}
		}
		for _, region := range fill {
			if err := ptab.SetRangePermPaged(region, perm.RWX); err != nil {
				t.Fatal(err)
			}
		}
		entry := 0
		if mode == vHPMP || mode == vHPMPGPT {
			if err := checker.SetSegment(0, nptRegion, perm.RW, false); err != nil {
				t.Fatal(err)
			}
			entry = 1
		}
		if mode == vHPMPGPT {
			if err := checker.SetSegment(1, gptRegion, perm.RW, false); err != nil {
				t.Fatal(err)
			}
			entry = 2
		}
		if err := checker.SetTableMode(entry, all, ptab.RootBase(), tblMode); err != nil {
			t.Fatal(err)
		}
	}
	return mach
}

// checkerFor is the checker a hypervisor under mode gets: none for vNone.
func checkerFor(mach *cpu.Machine, mode vmode) *hpmp.Checker {
	if mode == vNone {
		return nil
	}
	return mach.Checker
}

func newRig(t *testing.T, mode vmode) *rig {
	t.Helper()
	mach := newMachine(t, mode, 2)
	npt, err := pt.New(mach.Mem, phys.NewFrameAllocator(nptRegion, false), addr.Sv39x4)
	if err != nil {
		t.Fatal(err)
	}
	guest, err := NewGuestTable(mach.Mem, npt, 0x4000_0000, 256, phys.NewFrameAllocator(gptRegion, false))
	if err != nil {
		t.Fatal(err)
	}
	hyp := NewHypervisor(mach, checkerFor(mach, mode), npt, guest)

	// One guest data page.
	gva := addr.VA(0x1000_0000)
	dataPA, err := phys.NewFrameAllocator(dataRegion, false).Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := npt.Map(addr.VA(0x8000_0000), dataPA, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	if err := guest.Map(gva, 0x8000_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	return &rig{mach: mach, hyp: hyp, gva: gva}
}

// TestFigure8ReferenceCounts asserts the 3-D walk arithmetic of §6.
func TestFigure8ReferenceCounts(t *testing.T) {
	cases := []struct {
		name string
		mode vmode
		want int
	}{
		{"NoIsolation_16", vNone, 16},
		{"PMP_16", vPMP, 16},
		{"PMPT_48", vPMPT, 48},
		{"HPMP_24", vHPMP, 24},
		{"HPMPGPT_18", vHPMPGPT, 18},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.mode)
			r.hyp.DisableWalkCaches() // ISA counts assume no PWC (footnote 1)
			res, err := r.hyp.AccessGuest(r.gva, perm.Read, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.PageFault || res.AccessFault {
				t.Fatalf("fault: %+v", res)
			}
			if got := res.TotalRefs(); got != tc.want {
				t.Errorf("TotalRefs = %d, want %d (NPT=%d gPT=%d chk=%d data=%d)",
					got, tc.want, res.NPTRefs, res.GPTRefs, res.CheckRefs, res.DataRefs)
			}
			// The structural split is also fixed: 12 NPT + 3 gPT + 1 data.
			if res.NPTRefs != 12 || res.GPTRefs != 3 || res.DataRefs != 1 {
				t.Errorf("split = %d/%d/%d, want 12/3/1", res.NPTRefs, res.GPTRefs, res.DataRefs)
			}
		})
	}
}

func TestGuestTranslationCorrect(t *testing.T) {
	r := newRig(t, vNone)
	res, err := r.hyp.AccessGuest(r.gva+0x1a8, perm.Read, 0)
	if err != nil || res.PageFault {
		t.Fatalf("%+v %v", res, err)
	}
	// Oracle: gva → gpa → pa.
	gpa, err := r.hyp.Guest.TranslateSW(r.gva + 0x1a8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.hyp.NPT.TranslateSW(addr.VA(gpa.PA))
	if err != nil {
		t.Fatal(err)
	}
	if gpa.PA != 0x8000_01a8 || !r.dataInL1(want.PA) {
		t.Errorf("gva → %v: the access did not reference %v", gpa.PA, want.PA)
	}
}

func TestGTLBHit(t *testing.T) {
	r := newRig(t, vPMPT)
	r1, _ := r.hyp.AccessGuest(r.gva, perm.Read, 0)
	if gtlbHit(r1) {
		t.Fatal("first access must miss")
	}
	r2, _ := r.hyp.AccessGuest(r.gva, perm.Read, 1000)
	if !gtlbHit(r2) {
		t.Fatal("second access must hit the guest TLB")
	}
	if r2.TotalRefs() != 1 {
		t.Errorf("TLB hit refs = %d, want 1 (data only)", r2.TotalRefs())
	}
	if r2.Latency >= r1.Latency {
		t.Error("TLB hit must be much cheaper")
	}
}

func TestHFenceVVMAKeepsNPTState(t *testing.T) {
	r := newRig(t, vPMPT)
	r.hyp.AccessGuest(r.gva, perm.Read, 0)
	r.hyp.HFenceVVMA()
	res, _ := r.hyp.AccessGuest(r.gva, perm.Read, 1000)
	if gtlbHit(res) {
		t.Fatal("hfence.vvma must kill the combined translation")
	}
	// NPT translations survive in the NPTLB: no nested PTE fetches, only
	// the 3 guest PTE fetches and the data access.
	if res.NPTRefs != 0 {
		t.Errorf("after hfence.vvma NPT walks should hit the NPTLB, got %d refs", res.NPTRefs)
	}
	if res.GPTRefs != 3 {
		t.Errorf("gPT refs = %d, want 3", res.GPTRefs)
	}

	// hfence.gvma kills second-stage state too: the nested walks re-run.
	// With the PWC enabled, upper NPT levels shared by the four nested
	// walks dedupe within the single 3-D walk: 3 + 1 + 1 + 3 = 8 fetches.
	r.hyp.HFenceGVMA()
	res, _ = r.hyp.AccessGuest(r.gva, perm.Read, 2000)
	if res.NPTRefs != 8 {
		t.Errorf("after hfence.gvma the nested walk must re-run: %d refs, want 8", res.NPTRefs)
	}
}

func TestVirtLatencyOrdering(t *testing.T) {
	// Fig. 13 ordering on a cold access: PMP ≤ HPMP-GPT ≤ HPMP < PMPT.
	lat := map[vmode]uint64{}
	for _, m := range []vmode{vPMP, vPMPT, vHPMP, vHPMPGPT} {
		r := newRig(t, m)
		res, err := r.hyp.AccessGuest(r.gva, perm.Read, 0)
		if err != nil || res.PageFault || res.AccessFault {
			t.Fatalf("mode %d: %+v %v", m, res, err)
		}
		lat[m] = res.Latency
	}
	if !(lat[vPMP] <= lat[vHPMPGPT] && lat[vHPMPGPT] <= lat[vHPMP] && lat[vHPMP] < lat[vPMPT]) {
		t.Errorf("ordering violated: PMP=%d HPMP-GPT=%d HPMP=%d PMPT=%d",
			lat[vPMP], lat[vHPMPGPT], lat[vHPMP], lat[vPMPT])
	}
}

func TestNestedTableX4Root(t *testing.T) {
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	alloc := phys.NewFrameAllocator(nptRegion, false)
	npt, err := pt.New(mach.Mem, alloc, addr.Sv39x4)
	if err != nil {
		t.Fatal(err)
	}
	// The Sv39x4 root is four contiguous pages at the start of the pool.
	if got := npt.PTPages(); len(got) != 4 || got[0] != nptRegion.Base || got[3] != nptRegion.Base+3*addr.PageSize {
		t.Errorf("root pages = %v, want 4 contiguous from %v", got, nptRegion.Base)
	}
	// A GPA above 512 GiB-of-Sv39 reach but within Sv39x4's 41 bits uses
	// the extended root index.
	bigGPA := addr.VA(uint64(600) * addr.GiB)
	if err := npt.Map(bigGPA, 0x900_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	tr, err := npt.TranslateSW(bigGPA + 0x10)
	if err != nil || tr.PA != 0x900_0010 {
		t.Errorf("x4 translation = %v, %v", tr.PA, err)
	}
	// Root index for 600 GiB is 600 (> 511): only representable with the
	// 11-bit root, whose PTE lies in the root's third page.
	if idx := addr.Sv39x4.VPN(bigGPA, 2); idx != 600 {
		t.Errorf("root index = %d, want 600", idx)
	}
	path, err := npt.WalkPath(bigGPA)
	if err != nil || len(path) != 3 || path[0] != npt.Root()+600*8 {
		t.Errorf("walk path = %+v, %v; want 3 steps from root PTE %v", path, err, npt.Root()+600*8)
	}
}

func TestGuestPageFaults(t *testing.T) {
	r := newRig(t, vNone)
	res, err := r.hyp.AccessGuest(0x3fff_0000, perm.Read, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageFault {
		t.Error("unmapped guest VA must fault")
	}
	// Guest permission is honored: write to an RW page is fine, but the
	// mapped page is RW so probe Fetch instead.
	res, err = r.hyp.AccessGuest(r.gva, perm.Fetch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PageFault {
		t.Error("fetch from an rw- guest page must fault")
	}
}

func TestGuestPTHostPagesContiguity(t *testing.T) {
	// For HPMP-GPT the host frames backing guest PT pages must land in the
	// contiguous gpt region (what the guest-notify extension buys).
	r := newRig(t, vHPMPGPT)
	pages := r.hyp.Guest.PTHostPages()
	if len(pages) < 3 {
		t.Fatalf("guest table should have ≥3 PT pages, got %d", len(pages))
	}
	for _, pa := range pages {
		if !gptRegion.Contains(pa) {
			t.Errorf("guest PT host page %v outside %v", pa, gptRegion)
		}
	}
}

// mapGuestPage maps gva→gpa in the guest table with guestPerm and gpa→pa
// in the nested table with nptPerm.
func mapGuestPage(t *testing.T, r *rig, gva addr.VA, gpa addr.GPA, pa addr.PA, guestPerm, nptPerm perm.Perm) {
	t.Helper()
	if err := r.hyp.NPT.Map(addr.VA(gpa), pa, nptPerm, true); err != nil {
		t.Fatal(err)
	}
	if err := r.hyp.Guest.Map(gva, addr.PA(gpa), guestPerm, true); err != nil {
		t.Fatal(err)
	}
}

func accessGuest(t *testing.T, r *rig, gva addr.VA, k perm.Access) Result {
	t.Helper()
	res, err := r.hyp.AccessGuest(gva, k, r.mach.Core.Now)
	if err != nil {
		t.Fatal(err)
	}
	r.mach.Core.Now += res.Latency
	return res
}

// TestGTLBHitChecksGuestPermission: a guest-TLB hit applies the cached guest
// PTE permission, as the MMU's TLB hit does, not only the inlined physical
// one.
func TestGTLBHitChecksGuestPermission(t *testing.T) {
	r := newRig(t, vPMPT)
	gva, gpa := r.gva+addr.PageSize, addr.GPA(0x8000_1000)
	mapGuestPage(t, r, gva, gpa, dataRegion.Base+addr.MiB, perm.R, perm.RW)
	if res := accessGuest(t, r, gva, perm.Write); !res.PageFault || gtlbHit(res) {
		t.Fatalf("cold write to a read-only guest page: %+v, want a walk that page-faults", res)
	}
	if res := accessGuest(t, r, gva, perm.Read); res.PageFault || res.AccessFault {
		t.Fatalf("read of a read-only guest page: %+v", res)
	}
	if res := accessGuest(t, r, gva, perm.Write); !res.PageFault || !gtlbHit(res) {
		t.Errorf("write after a read: %+v, want a guest-TLB hit that page-faults", res)
	}
}

// TestGStagePermissions: the NPT leaf of the data GPA must allow the access
// kind, the NPT leaf of every guest PTE must allow reads, and the guest-TLB
// and NPTLB entries carry those G-stage permissions.
func TestGStagePermissions(t *testing.T) {
	r := newRig(t, vPMPT)
	gva, gpa := r.gva+addr.PageSize, addr.GPA(0x8000_1000)
	mapGuestPage(t, r, gva, gpa, dataRegion.Base+addr.MiB, perm.RW, perm.R)
	if res := accessGuest(t, r, gva, perm.Write); !res.PageFault || gtlbHit(res) {
		t.Fatalf("cold write to a GPA the NPT maps read-only: %+v, want a page fault", res)
	}
	if res := accessGuest(t, r, gva, perm.Read); res.PageFault || res.AccessFault {
		t.Fatalf("read of a GPA the NPT maps read-only: %+v", res)
	}
	if res := accessGuest(t, r, gva, perm.Write); !res.PageFault || !gtlbHit(res) {
		t.Errorf("write after a read: %+v, want a guest-TLB hit that page-faults", res)
	}
	// hfence.vvma keeps the NPTLB: the data GPA now translates from it.
	r.hyp.HFenceVVMA()
	if res := accessGuest(t, r, gva, perm.Write); !res.PageFault || res.NPTRefs != 0 {
		t.Errorf("write through the NPTLB: %+v, want a page fault with no nested fetches", res)
	}

	// The guest root's GPA, remapped execute-only in the NPT, can no longer
	// be read by the guest walk.
	if res := accessGuest(t, r, r.gva, perm.Read); res.PageFault || res.AccessFault {
		t.Fatalf("read before the remap: %+v", res)
	}
	root := r.hyp.Guest.Root()
	if err := r.hyp.NPT.Map(addr.VA(root), r.hyp.Guest.PTHostPages()[0], perm.X, true); err != nil {
		t.Fatal(err)
	}
	r.hyp.HFenceGVMA()
	if res := accessGuest(t, r, r.gva, perm.Read); !res.PageFault || res.GPTRefs != 0 {
		t.Errorf("walk through an execute-only guest PT page: %+v, want a page fault before any gPTE fetch", res)
	}
}

// TestGuestSuperpage: a guest 2 MiB leaf translates the GVA's offset within
// the superpage, not only its page offset.
func TestGuestSuperpage(t *testing.T) {
	r := newRig(t, vNone)
	gva, gpa := addr.VA(0x2000_0000), addr.GPA(0xa000_0000)
	if err := r.hyp.Guest.MapSuper(gva, addr.PA(gpa), 1, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	host := dataRegion.Base + addr.MiB
	if err := r.hyp.NPT.Map(addr.VA(gpa+0x5000), host, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	res := accessGuest(t, r, gva+0x5008, perm.Read)
	if res.PageFault || res.AccessFault || !r.dataInL1(host+8) || res.GPTRefs != 2 {
		t.Errorf("superpage access: %+v, want PA %v after 2 gPTE fetches", res, host+8)
	}
}
