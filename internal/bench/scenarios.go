package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/simcfg"
	"hpmp/internal/stats"
	"hpmp/internal/virt"
	"hpmp/internal/workloads"
)

// Scenario zoo: situations the paper's evaluation never ran but its design
// arguments predict behaviour for. Each scenario is a normal registered
// experiment — it lists, runs, golden-pins, and exports metrics like the
// figure reproductions — and doubles as a trace donor for the replay engine
// (internal/replay): all four are light-tier, so the record-then-replay
// equivalence gate covers their traces too.

func init() {
	register(ExperimentSpec{
		ID:       "scen-shootdown",
		Title:    "TLB-shootdown storm: remap churn vs working-set re-touch cost",
		Figure:   "scenario (§8 extrapolation)",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel."},
		Cost:     CostLight,
		Run:      runScenShootdown,
	})
	register(ExperimentSpec{
		ID:       "scen-virtdepth",
		Title:    "Nested virtualization with deeper permission tables (depth sweep)",
		Figure:   "scenario (§4.3 Mode field × §8.6 virtualization)",
		Counters: []string{"cpu.", "mmu.", "mem."},
		Cost:     CostLight,
		Run:      runScenVirtDepth,
	})
	register(ExperimentSpec{
		ID:       "scen-aging",
		Title:    "Memory-fragmentation aging: translation cost vs allocator churn",
		Figure:   "scenario (§8.8 extrapolation)",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel."},
		Cost:     CostLight,
		Run:      runScenAging,
	})
	register(ExperimentSpec{
		ID:       "scen-coldflood",
		Title:    "Serverless cold-start flood: back-to-back fresh invocations",
		Figure:   "scenario (§8.7 extrapolation)",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel."},
		Cost:     CostLight,
		Run:      runScenColdFlood,
	})
}

// --- scen-shootdown ---------------------------------------------------

// shootdownParams sizes the storm: harts become round-robin processes
// (the simulator is single-hart, so the cross-hart cost that survives is
// the one the paper cares about — every shootdown round empties the PWC
// and forces re-walks whose price depends on the isolation mode).
func shootdownParams(cfg Config) (harts, wset, rounds int) {
	if cfg.Quick {
		return 2, 8, 4
	}
	return 4, 16, 8
}

// runScenShootdown: H worker processes each re-touch a private working set
// every round; between rounds one process unmaps and remaps a page (munmap
// → per-page sfence.vma, the IPI-broadcast shootdown's local cost). The
// sfence conservatively drops walker-cache state, so every round's
// re-touches pay fresh walks: PMPT re-pays the extra-dimensional table
// refs, HPMP only the segment check.
func runScenShootdown(cfg Config) (*Result, error) {
	harts, wset, rounds := shootdownParams(cfg)
	res := &Result{ID: "scen-shootdown",
		Title: fmt.Sprintf("TLB-shootdown storm (%d harts × %d pages × %d rounds, Rocket)", harts, wset, rounds)}
	t := stats.NewTable("scen-shootdown", "Mode", "Total cycles", "Cycles/round", "vs PMP")

	var base float64
	for _, mode := range AllModes {
		sys, err := NewSystem(cpu.RocketPlatform(), mode, cfg)
		if err != nil {
			return nil, err
		}
		type worker struct {
			env  *kernel.Env
			vas  []addr.VA
			spin addr.VA // the page the storm unmaps/remaps
		}
		workers := make([]worker, harts)
		for i := range workers {
			e, err := sys.NewEnv(fmt.Sprintf("hart-%d", i), 4096)
			if err != nil {
				return nil, err
			}
			bufBase := e.P.MMap(wset, perm.RW)
			w := worker{env: e, spin: e.P.MMap(1, perm.RW)}
			for j := 0; j < wset; j++ {
				w.vas = append(w.vas, bufBase+addr.VA(j*addr.PageSize))
			}
			// Prefault working set and spin page.
			if err := sys.Kern.SwitchTo(e.P.PID); err != nil {
				return nil, err
			}
			if err := e.Touch(bufBase, uint64(wset*addr.PageSize)); err != nil {
				return nil, err
			}
			if err := e.Touch(w.spin, addr.PageSize); err != nil {
				return nil, err
			}
			workers[i] = w
		}

		start := sys.Mach.Core.Now
		for r := 0; r < rounds; r++ {
			// The storm: hart r%H drops its spin page and maps a fresh one —
			// munmap frees the frame, clears the PTE, and issues the
			// per-page flush every other hart would receive as an IPI.
			v := &workers[r%harts]
			if err := sys.Kern.SwitchTo(v.env.P.PID); err != nil {
				return nil, err
			}
			if err := sys.Kern.MUnmap(v.env.P, v.spin); err != nil {
				return nil, err
			}
			v.spin = v.env.P.MMap(1, perm.RW)
			if err := v.env.Touch(v.spin, addr.PageSize); err != nil {
				return nil, err
			}
			// Every hart re-touches its working set through the batched
			// access path — the post-shootdown re-walk storm.
			for i := range workers {
				w := &workers[i]
				if err := sys.Kern.SwitchTo(w.env.P.PID); err != nil {
					return nil, err
				}
				reqs := make([]mmu.AccessReq, len(w.vas))
				out := make([]mmu.Result, len(w.vas))
				for j, va := range w.vas {
					reqs[j] = mmu.AccessReq{VA: va, Kind: perm.Read, Priv: perm.U}
				}
				end, err := sys.Mach.MMU.AccessBatch(reqs, out, sys.Mach.Core.Now)
				if err != nil {
					return nil, err
				}
				for j := range out {
					if out[j].Faulted() {
						return nil, fmt.Errorf("scen-shootdown: fault at %v: %+v", w.vas[j], out[j])
					}
				}
				sys.Mach.Core.Now = end
			}
		}
		total := sys.Mach.Core.Now - start
		if mode == monitor.ModePMP {
			base = float64(total)
		}
		t.AddRow(ModeNames[mode],
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", total/uint64(rounds)),
			fmt.Sprintf("%.1f", stats.Ratio(float64(total), base)))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Each munmap's sfence.vma drops walker-cache state, so every round re-pays full walks: "+
			"the table modes re-pay the extra-dimensional refs, the segment mode only the match.")
	return res, nil
}

// --- scen-virtdepth ---------------------------------------------------

// virtDepthRig is buildVirtRig generalized over permission-table depth:
// depth 2 uses the standard 2-level table, depths 3 and 4 the reserved
// Mode-field encodings (ext-deep), filled page-granular over the regions
// the guest access path actually touches so every uncached check walks the
// full depth.
func virtDepthRig(mode monitor.Mode, depth int, cfg Config) (*virt.Hypervisor, addr.VA, error) {
	memSize := cfg.MemSize
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize)
	cfg.observe(mach)
	nptRegion := addr.Range{Base: 0x0100_0000, Size: 4 * addr.MiB}
	tblRegion := addr.Range{Base: 0x0400_0000, Size: 16 * addr.MiB}
	dataRegion := addr.Range{Base: 0x0800_0000, Size: 64 * addr.MiB}

	nptAlloc := phys.NewFrameAllocator(nptRegion, false)
	dataAlloc := phys.NewFrameAllocator(dataRegion, false)
	tblAlloc := phys.NewFrameAllocator(tblRegion, false)

	npt, err := virt.NewNestedTable(mach.Mem, nptAlloc)
	if err != nil {
		return nil, 0, err
	}
	guest, err := virt.NewGuestTable(mach.Mem, npt, 0x4000_0000, 256, dataAlloc)
	if err != nil {
		return nil, 0, err
	}

	checker := mach.Checker
	all := addr.Range{Base: 0, Size: memSize}
	entry := 0
	if mode == monitor.ModeHPMP {
		if err := checker.SetSegment(entry, nptRegion, perm.RW, false); err != nil {
			return nil, 0, err
		}
		entry++
	}
	// Page-granular fill: huge entries would short-circuit every check at
	// one fetch and make the depth sweep vacuous. Depth 2 grants all of
	// DRAM, as buildVirtRig does; deeper tables only the touched regions.
	fill := []addr.Range{all}
	if depth > 2 {
		fill = []addr.Range{nptRegion, dataRegion}
	}
	tblMode := pmpt.ModeFor(depth)
	ptab, err := pmpt.NewTableMode(mach.Mem, tblAlloc, all, tblMode)
	if err != nil {
		return nil, 0, fmt.Errorf("scen-virtdepth: depth %d: %w", depth, err)
	}
	for _, region := range fill {
		if err := ptab.SetRangePermPaged(region, perm.RWX); err != nil {
			return nil, 0, err
		}
	}
	if err := checker.SetTableMode(entry, all, ptab.RootBase(), tblMode); err != nil {
		return nil, 0, err
	}

	hyp := virt.NewHypervisor(mach, checker, npt, guest)
	gva := addr.VA(0x1000_0000)
	for i := 0; i < 2; i++ {
		gpa := addr.GPA(0x8000_0000 + i*addr.PageSize)
		pa, err := dataAlloc.Alloc()
		if err != nil {
			return nil, 0, err
		}
		if err := npt.Map(gpa, pa, perm.RW); err != nil {
			return nil, 0, err
		}
		if err := guest.Map(gva+addr.VA(i*addr.PageSize), gpa, perm.RW); err != nil {
			return nil, 0, err
		}
	}
	return hyp, gva, nil
}

// virtDepthProbe measures the cold and post-hfence.gvma hlv.d latency.
func virtDepthProbe(mode monitor.Mode, depth int, cfg Config) (cold, hfence uint64, err error) {
	hyp, gva, err := virtDepthRig(mode, depth, cfg)
	if err != nil {
		return 0, 0, err
	}
	access := func() (virt.Result, error) {
		return hyp.AccessGuest(gva, perm.Read, hyp.Mach.Core.Now)
	}
	hyp.Mach.ColdReset()
	r, err := access()
	if err != nil {
		return 0, 0, err
	}
	if r.PageFault || r.AccessFault {
		return 0, 0, fmt.Errorf("scen-virtdepth %v depth %d: fault %+v", mode, depth, r)
	}
	cold = r.Latency
	hyp.HFenceGVMA()
	r, err = access()
	if err != nil {
		return 0, 0, err
	}
	return cold, r.Latency, nil
}

// runScenVirtDepth sweeps the permission-table depth under nested
// virtualization: the two-dimensional walk multiplies the page-table refs,
// and every extra permission-table level multiplies them again — the
// regime the CVA6 nested-virtualization work motivates. HPMP's segment
// entry takes the NPT pages out of the table path at every depth.
func runScenVirtDepth(cfg Config) (*Result, error) {
	res := &Result{ID: "scen-virtdepth", Title: "hlv.d latency vs permission-table depth (cycles, Rocket)"}
	t := stats.NewTable("scen-virtdepth", "Depth",
		"PMPT cold", "PMPT hfence.g", "HPMP cold", "HPMP hfence.g")
	for _, depth := range []int{2, 3, 4} {
		pc, pf, err := virtDepthProbe(monitor.ModePMPT, depth, cfg)
		if err != nil {
			return nil, err
		}
		hc, hf, err := virtDepthProbe(monitor.ModeHPMP, depth, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d-level", depth),
			fmt.Sprintf("%d", pc), fmt.Sprintf("%d", pf),
			fmt.Sprintf("%d", hc), fmt.Sprintf("%d", hf))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Sv39 guest over Sv39x4 NPT; permission-table depth via the §4.3 reserved Mode values.",
		"Deeper tables stretch PMPT's per-PTE-fetch checks; HPMP's NPT segment flattens the growth.")
	return res, nil
}

// --- scen-aging -------------------------------------------------------

// agingParams sizes the churn: each epoch shuffles churnPages frames onto
// the free list, and the probe's working set draws from them. Both churn
// sizes are coprime to ageSystem's permutation stride.
func agingParams(cfg Config) (churnPages, wset int) {
	if cfg.Quick {
		return 24, 12
	}
	return 48, 24
}

// agingProbe times a fresh process touching wset pages through the batched
// path with cold translation state — fragProbe's measurement loop, aimed
// at whatever frames the aged allocator hands out.
func agingProbe(sys *System, name string, wset int) (uint64, error) {
	e, err := sys.NewEnv(name, 4096)
	if err != nil {
		return 0, err
	}
	if err := sys.Kern.SwitchTo(e.P.PID); err != nil {
		return 0, err
	}
	base := e.P.MMap(wset, perm.RW)
	if err := e.Touch(base, uint64(wset*addr.PageSize)); err != nil {
		return 0, err
	}
	// Full cold reset (caches, TLBs, PWC, PMPTW cache, DRAM row state): the
	// only thing that differs between epochs is where the aged allocator
	// put the frames.
	sys.Mach.ColdReset()
	reqs := make([]mmu.AccessReq, wset)
	out := make([]mmu.Result, wset)
	for i := 0; i < wset; i++ {
		reqs[i] = mmu.AccessReq{VA: base + addr.VA(i*addr.PageSize), Kind: perm.Read, Priv: perm.U}
	}
	start := sys.Mach.Core.Now
	end, err := sys.Mach.MMU.AccessBatch(reqs, out, start)
	if err != nil {
		return 0, err
	}
	for i := range out {
		if out[i].Faulted() {
			return 0, fmt.Errorf("agingProbe: fault: %+v", out[i])
		}
	}
	sys.Mach.Core.Now = end
	return end - start, nil
}

// ageSystem runs one churn epoch: a resident process materializes a run of
// single-page mappings (contiguous frames, in order), then munmaps them in
// a stride-permuted order. The frees land on the allocator's LIFO free
// list shuffled, so the next demand-faulting process draws frames scattered
// across the region instead of an ascending run — allocator aging.
func ageSystem(sys *System, epoch, churnPages int) error {
	e, err := sys.NewEnv(fmt.Sprintf("churn-%d", epoch), 4096)
	if err != nil {
		return err
	}
	if err := sys.Kern.SwitchTo(e.P.PID); err != nil {
		return err
	}
	vmas := make([]addr.VA, churnPages)
	for i := range vmas {
		vmas[i] = e.P.MMap(1, perm.RW)
		if err := e.Touch(vmas[i], addr.PageSize); err != nil {
			return err
		}
	}
	// Stride 7 is coprime to the churn sizes, so the permutation visits
	// every mapping exactly once.
	for i := range vmas {
		j := (i * 7) % len(vmas)
		if err := sys.Kern.MUnmap(e.P, vmas[j]); err != nil {
			return err
		}
	}
	// The churn process stays resident (a long-lived daemon): exiting it
	// would append its image frames to the free list in a tidy run and
	// partially undo the shuffle.
	return nil
}

// runScenAging measures how allocator aging inflates translation cost: a
// young system hands a fresh process contiguous frames; after churn epochs
// the same probe lands on scattered frames, spreading PTEs and permission
// -table entries across more cache lines — the fragmented-PA regime of
// Fig. 15 reached by lifecycle instead of by flag.
func runScenAging(cfg Config) (*Result, error) {
	churn, wset := agingParams(cfg)
	res := &Result{ID: "scen-aging",
		Title: fmt.Sprintf("Allocator aging: %d-page probe after churn epochs (cycles, Rocket)", wset)}
	t := stats.NewTable("scen-aging", "Age", "PMP", "PMPT", "HPMP")
	epochs := []string{"fresh", "aged-1", "aged-2"}
	lat := map[string]map[monitor.Mode]uint64{}
	for _, mode := range AllModes {
		sys, err := NewSystem(cpu.RocketPlatform(), mode, cfg)
		if err != nil {
			return nil, err
		}
		for ep, name := range epochs {
			if ep > 0 {
				if err := ageSystem(sys, ep, churn); err != nil {
					return nil, err
				}
			}
			cycles, err := agingProbe(sys, fmt.Sprintf("probe-%d", ep), wset)
			if err != nil {
				return nil, err
			}
			if lat[name] == nil {
				lat[name] = map[monitor.Mode]uint64{}
			}
			lat[name][mode] = cycles
		}
	}
	for _, name := range epochs {
		t.AddRow(name,
			fmt.Sprintf("%d", lat[name][monitor.ModePMP]),
			fmt.Sprintf("%d", lat[name][monitor.ModePMPT]),
			fmt.Sprintf("%d", lat[name][monitor.ModeHPMP]))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		fmt.Sprintf("Each epoch shuffles %d frames onto the free list via stride-permuted munmaps; probes touch %d pages after a cold reset.", churn, wset),
		"Aging scatters frames like Fig. 15's Fragmented-PA, but earned through allocator churn; the mode ordering (PMP < HPMP < PMPT) holds at every age.")
	return res, nil
}

// --- scen-coldflood ---------------------------------------------------

func coldFloodParams(cfg Config) (flood int, w workloads.Workload) {
	if cfg.Quick {
		return simcfg.Or(cfg.Workload.ColdStarts, 4), &workloads.Matmul{N: 8}
	}
	return simcfg.Or(cfg.Workload.ColdStarts, 12), &workloads.Matmul{N: 16}
}

// runScenColdFlood hammers one system with back-to-back cold invocations —
// the flood a serverless platform sees when a popular function scales from
// zero. Every invocation is a fresh process: cold TLB, demand paging, full
// spawn/exit kernel path; isolation-mode overhead lands on every single
// request instead of amortizing across a warm pool.
func runScenColdFlood(cfg Config) (*Result, error) {
	flood, w := coldFloodParams(cfg)
	res := &Result{ID: "scen-coldflood",
		Title: fmt.Sprintf("Cold-start flood: %d back-to-back %s invocations (Rocket)", flood, w.Name())}
	t := stats.NewTable("scen-coldflood", "System", "Total Mcyc", "Mean cyc/invocation", "vs Host-PMP")

	systems := []struct {
		label string
		boot  func() (*System, error)
	}{
		{"Host-PMP", func() (*System, error) { return NewHostSystem(cpu.RocketPlatform(), cfg) }},
		{"PL-PMP", func() (*System, error) { return NewSystem(cpu.RocketPlatform(), monitor.ModePMP, cfg) }},
		{"PL-PMPT", func() (*System, error) { return NewSystem(cpu.RocketPlatform(), monitor.ModePMPT, cfg) }},
		{"PL-HPMP", func() (*System, error) { return NewSystem(cpu.RocketPlatform(), monitor.ModeHPMP, cfg) }},
	}
	var base float64
	for _, s := range systems {
		sys, err := s.boot()
		if err != nil {
			return nil, err
		}
		if _, err := sys.NewEnv("gateway", 1024); err != nil {
			return nil, err
		}
		var total uint64
		for i := 0; i < flood; i++ {
			cycles, err := runServerless(sys, w)
			if err != nil {
				return nil, fmt.Errorf("%s invocation %d: %w", s.label, i, err)
			}
			total += cycles
		}
		mean := total / uint64(flood)
		if s.label == "Host-PMP" {
			base = float64(mean)
		}
		t.AddRow(s.label,
			fmt.Sprintf("%.2f", float64(total)/1e6),
			fmt.Sprintf("%d", mean),
			fmt.Sprintf("%.1f", stats.Ratio(float64(mean), base)))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"No warm pool: every request pays spawn, demand paging, and cold-cache walks under its isolation mode.")
	return res, nil
}
