package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
	"hpmp/internal/stats"
	"hpmp/internal/virt"
)

func init() {
	Register(Experiment{
		ID:       "fig13",
		Title:    "Memory access latency in a virtualized environment (Rocket)",
		Figure:   "Fig. 13",
		Counters: []string{"cpu.", "mmu.", "mem."},
		Cost:     CostLight,
		Run:      runFig13,
	})
}

// virtMethod labels the four Fig. 13 configurations.
type virtMethod int

const (
	vmPMP virtMethod = iota
	vmPMPT
	vmHPMP
	vmHPMPGPT
)

// virtCase labels the five Fig. 13 states.
var virtCases = []string{"TC1", "After hfence.v", "After hfence.g", "TC3", "TC4"}

// virtRig assembles a guest under the given method and maps two adjacent
// guest data pages. depth is the permission-table depth of the table
// methods: 2 is the standard 2-level table granting all of DRAM (fig13);
// 3 and 4 are the reserved Mode-field encodings (ext-deep), filled over
// only the regions the guest access path touches. Every fill is
// page-granular: huge entries would end each check at one fetch and make
// a depth sweep vacuous.
func virtRig(method virtMethod, depth int, cfg Config) (*virt.Hypervisor, addr.VA, error) {
	memSize := cfg.MemSize
	mach := bareRig(cpu.RocketPlatform(), memSize, cfg)
	nptRegion := addr.Range{Base: 0x0100_0000, Size: 4 * addr.MiB}
	gptRegion := addr.Range{Base: 0x0180_0000, Size: 4 * addr.MiB}
	tblRegion := addr.Range{Base: 0x0400_0000, Size: 16 * addr.MiB}
	dataRegion := addr.Range{Base: 0x0800_0000, Size: 64 * addr.MiB}

	nptAlloc := phys.NewFrameAllocator(nptRegion, false)
	dataAlloc := phys.NewFrameAllocator(dataRegion, false)
	tblAlloc := phys.NewFrameAllocator(tblRegion, false)

	// HPMP-GPT: guest PT host frames in the dedicated contiguous region;
	// otherwise they come from general data memory (scattered among data).
	gptAlloc := dataAlloc
	if method == vmHPMPGPT {
		gptAlloc = phys.NewFrameAllocator(gptRegion, false)
	}

	npt, err := pt.New(mach.Mem, nptAlloc, addr.Sv39x4)
	if err != nil {
		return nil, 0, err
	}
	guest, err := virt.NewGuestTable(mach.Mem, npt, 0x4000_0000, 256, gptAlloc)
	if err != nil {
		return nil, 0, err
	}

	checker := mach.Checker
	all := addr.Range{Base: 0, Size: memSize}
	if method == vmPMP {
		if err := checker.SetSegment(0, all, perm.RWX, false); err != nil {
			return nil, 0, err
		}
	} else {
		var segments []addr.Range
		if method == vmHPMP || method == vmHPMPGPT {
			segments = append(segments, nptRegion)
		}
		if method == vmHPMPGPT {
			segments = append(segments, gptRegion)
		}
		for i, seg := range segments {
			if err := checker.SetSegment(i, seg, perm.RW, false); err != nil {
				return nil, 0, err
			}
		}
		fill := []addr.Range{all}
		if depth > 2 {
			fill = []addr.Range{nptRegion, dataRegion}
		}
		tblMode := pmpt.ModeFor(depth)
		ptab, err := pmpt.NewTableMode(mach.Mem, tblAlloc, all, tblMode)
		if err != nil {
			return nil, 0, fmt.Errorf("virt rig: depth %d: %w", depth, err)
		}
		for _, region := range fill {
			if err := ptab.SetRangePermPaged(region, perm.RWX); err != nil {
				return nil, 0, err
			}
		}
		if err := checker.SetTableMode(len(segments), all, ptab.RootBase(), tblMode); err != nil {
			return nil, 0, err
		}
	}

	hyp := virt.NewHypervisor(mach, checker, npt, guest)
	gva := addr.VA(0x1000_0000)
	for i := 0; i < 2; i++ {
		gpa := addr.GPA(0x8000_0000 + i*addr.PageSize)
		pa, err := dataAlloc.Alloc()
		if err != nil {
			return nil, 0, err
		}
		if err := npt.Map(addr.VA(gpa), pa, perm.RW, true); err != nil {
			return nil, 0, err
		}
		if err := guest.Map(gva+addr.VA(i*addr.PageSize), addr.PA(gpa), perm.RW, true); err != nil {
			return nil, 0, err
		}
	}
	return hyp, gva, nil
}

// virtProbe measures the hlv.d latency under one state recipe.
func virtProbe(method virtMethod, vcase string, cfg Config) (uint64, error) {
	hyp, gva, err := virtRig(method, 2, cfg)
	if err != nil {
		return 0, err
	}
	access := func(va addr.VA) (virt.Result, error) {
		return hyp.AccessGuest(va, perm.Read, hyp.Mach.Core.Now)
	}
	switch vcase {
	case "TC1":
		hyp.Mach.ColdReset()
	case "After hfence.v":
		if _, err := access(gva); err != nil {
			return 0, err
		}
		hyp.HFenceVVMA()
	case "After hfence.g":
		if _, err := access(gva); err != nil {
			return 0, err
		}
		hyp.HFenceGVMA()
	case "TC3":
		// Warm the neighbour page: shared upper-level state stays hot.
		if _, err := access(gva + addr.PageSize); err != nil {
			return 0, err
		}
		if _, err := access(gva); err != nil {
			return 0, err
		}
		hyp.GTLB.FlushVPN(gva.Frame())
	case "TC4":
		if _, err := access(gva); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("virtProbe: unknown case %q", vcase)
	}
	res, err := access(gva)
	if err != nil {
		return 0, err
	}
	if res.PageFault || res.AccessFault {
		return 0, fmt.Errorf("virtProbe %v/%s: fault %+v", method, vcase, res)
	}
	lat := res.Latency
	if lat == 0 {
		lat = 1
	}
	return lat, nil
}

// CollectFig13 measures the 5×4 latency matrix.
func CollectFig13(cfg Config) (map[string]map[virtMethod]uint64, error) {
	out := map[string]map[virtMethod]uint64{}
	for _, vcase := range virtCases {
		out[vcase] = map[virtMethod]uint64{}
		for _, m := range []virtMethod{vmPMP, vmPMPT, vmHPMP, vmHPMPGPT} {
			lat, err := virtProbe(m, vcase, cfg)
			if err != nil {
				return nil, err
			}
			out[vcase][m] = lat
		}
	}
	return out, nil
}

func runFig13(cfg Config) (*Result, error) {
	data, err := CollectFig13(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig13", Title: "hlv.d latency in a virtualized environment (cycles, Rocket)"}
	t := stats.NewTable("Fig 13", "Case", "PMPT", "HPMP", "HPMP-GPT", "PMP",
		"HPMP saves", "HPMP-GPT saves")
	for _, vcase := range virtCases {
		pmpt := float64(data[vcase][vmPMPT])
		hpmp := float64(data[vcase][vmHPMP])
		gpt := float64(data[vcase][vmHPMPGPT])
		pmp := float64(data[vcase][vmPMP])
		t.AddRow(vcase,
			fmt.Sprintf("%.0f", pmpt),
			fmt.Sprintf("%.0f", hpmp),
			fmt.Sprintf("%.0f", gpt),
			fmt.Sprintf("%.0f", pmp),
			fmt.Sprintf("%.1f%%", stats.Reduction(pmpt, hpmp, pmp)),
			fmt.Sprintf("%.1f%%", stats.Reduction(pmpt, gpt, pmp)))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Sv39 guest PT over Sv39x4 NPT; accesses via the hlv.d path (paper §8.6).",
		"Paper: PMPT +89.9–155% over PMP; HPMP cuts the extra cost to 29.7–75.6%; HPMP-GPT to 16.3–26.8%.")
	return res, nil
}
