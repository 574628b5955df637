package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
	"hpmp/internal/stats"
)

// Extension experiments: not figures of the paper, but claims its text
// makes (intro: deeper page tables make the extra dimension worse; §9: app
// hints can also free the data-page checks). Both are ablations DESIGN.md
// calls out.

func init() {
	register(ExperimentSpec{
		ID:       "ext-svx",
		Title:    "Deeper page tables: Sv39/Sv48/Sv57 reference counts",
		Figure:   "extension (§2.1 walk depth)",
		Counters: []string{"cpu.", "mmu.", "mem."},
		Cost:     CostLight,
		Run:      runExtSvx,
	})
	register(ExperimentSpec{
		ID:       "ext-hints",
		Title:    "Hot-region ioctl hints: data-page checks become free",
		Figure:   "extension (§4.2 segment fast path)",
		Counters: []string{"cpu.", "mmu.", "mem."},
		Cost:     CostLight,
		Run:      runExtHints,
	})
	register(ExperimentSpec{
		ID:       "ext-deep",
		Title:    "3-level PMP Tables (reserved Mode values): entries vs refs",
		Figure:   "extension (§4.3 Mode field)",
		Counters: []string{"cpu.", "mmu.", "mem."},
		Cost:     CostLight,
		Run:      runExtDeep,
	})
	register(ExperimentSpec{
		ID:       "ext-epmp",
		Title:    "ePMP (64 entries): PMP-mode capacity and HPMP fast slots",
		Figure:   "extension (§4.3 ePMP)",
		Counters: []string{"cpu.", "mmu.", "mem.", "monitor."},
		Cost:     CostLight,
		Run:      runExtEPMP,
	})
}

// runExtEPMP models §4.3's forward-looking claim: "future RISC-V
// processors will support 64 PMP entries with the ePMP extension". With 64
// entries, PMP-mode capacity grows ~4×, and Penglai-HPMP gets ~60 fast
// GMS slots — so far more hot regions ride segments.
func runExtEPMP(cfg Config) (*Result, error) {
	res := &Result{ID: "ext-epmp", Title: "16-entry PMP vs 64-entry ePMP"}
	t := stats.NewTable("ext-epmp", "Bank", "PMP-mode regions before exhaustion", "HPMP fast GMSs riding segments")
	for _, n := range []int{16, 64} {
		plat := cpu.RocketPlatform()
		plat.PMPEntries = n

		// (a) PMP-mode capacity: grant 64 KiB regions until the entries run
		// out.
		machA := cpu.NewMachine(plat, cfg.MemSize)
		monA, err := monitor.Boot(machA, monitor.DefaultConfig(monitor.ModePMP))
		if err != nil {
			return nil, err
		}
		cfg.observe(machA)
		cfg.observeMonitor(monA)
		capacity := 0
		for i := 0; ; i++ {
			region := addr.Range{Base: addr.PA(0x1000_0000 + i*addr.MiB), Size: 64 * addr.KiB}
			if _, _, err := monA.AddRegion(monitor.HostDomain, region, perm.RW, monitor.LabelSlow); err != nil {
				break
			}
			capacity++
			if capacity > 200 {
				return nil, fmt.Errorf("ext-epmp: capacity did not saturate")
			}
		}

		// (b) HPMP fast slots: label fast GMSs until they stop landing in
		// segments.
		machB := cpu.NewMachine(plat, cfg.MemSize)
		monB, err := monitor.Boot(machB, monitor.DefaultConfig(monitor.ModeHPMP))
		if err != nil {
			return nil, err
		}
		cfg.observe(machB)
		cfg.observeMonitor(monB)
		fast := 0
		for i := 0; i < 128; i++ {
			region := addr.Range{Base: addr.PA(0x1000_0000 + i*256*addr.KiB), Size: 256 * addr.KiB}
			if _, _, err := monB.AddRegion(monitor.HostDomain, region, perm.RW, monitor.LabelFast); err != nil {
				return nil, err
			}
			r, err := machB.Checker.Check(region.Base, 8, perm.Read, perm.S, 0)
			if err != nil {
				return nil, err
			}
			if !r.TableMode {
				fast++
			}
		}
		t.AddRow(fmt.Sprintf("%d entries", n),
			fmt.Sprintf("%d", capacity), fmt.Sprintf("%d", fast))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"The kernel's PT pool occupies one fast slot in real systems; the counts here are "+
			"raw slot capacity (entries − monitor − table pair).")
	return res, nil
}

// runExtDeep demonstrates the §4.3 Mode extension on a 32 GiB machine:
// covering the memory with 2-level tables takes two entry pairs (4 of 16
// entries) and 2 pmpte refs per uncached check; one 3-level table takes a
// single pair (2 entries) at 3 refs per check — the capacity/latency trade
// the paper reserves Mode values for.
func runExtDeep(cfg Config) (*Result, error) {
	const memSize = 32 * addr.GiB // sparse simulated memory: cheap
	res := &Result{ID: "ext-deep", Title: "Covering 32 GiB: 2-level chunks vs one 3-level table"}
	t := stats.NewTable("ext-deep", "Configuration", "HPMP entries used", "Refs/check", "Check latency (cyc)")

	probe := addr.PA(31 * addr.GiB)

	// (a) Two 2-level tables, 16 GiB each.
	{
		mach := cpu.NewMachine(cpu.RocketPlatform(), memSize)
		cfg.observe(mach)
		alloc := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 128 * addr.MiB}, false)
		entries := 0
		for i := 0; i < 2; i++ {
			region := addr.Range{Base: addr.PA(uint64(i) * 16 * addr.GiB), Size: 16 * addr.GiB}
			tbl, err := pmpt.NewTable(mach.Mem, alloc, region)
			if err != nil {
				return nil, err
			}
			if err := tbl.SetPagePerm(probe.PageBase(), perm.RW); err != nil && i == 1 {
				return nil, err
			}
			if err := mach.Checker.SetTable(2*i, region, tbl.RootBase()); err != nil {
				return nil, err
			}
			entries += 2
		}
		r, err := mach.Checker.Check(probe, 8, perm.Read, perm.S, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow("2× Mode2Level (16 GiB each)",
			fmt.Sprintf("%d", entries), fmt.Sprintf("%d", r.MemRefs), fmt.Sprintf("%d", r.Latency))
	}

	// (b) One 3-level table.
	{
		mach := cpu.NewMachine(cpu.RocketPlatform(), memSize)
		cfg.observe(mach)
		alloc := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 128 * addr.MiB}, false)
		region := addr.Range{Base: 0, Size: 32 * addr.GiB}
		tbl, err := pmpt.NewTableMode(mach.Mem, alloc, region, pmpt.Mode3Level)
		if err != nil {
			return nil, err
		}
		if err := tbl.SetPagePerm(probe.PageBase(), perm.RW); err != nil {
			return nil, err
		}
		if err := mach.Checker.SetTableMode(0, region, tbl.RootBase(), pmpt.Mode3Level); err != nil {
			return nil, err
		}
		r, err := mach.Checker.Check(probe, 8, perm.Read, perm.S, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow("1× Mode3Level (32 GiB)",
			"2", fmt.Sprintf("%d", r.MemRefs), fmt.Sprintf("%d", r.Latency))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"§4.3: 'it is easy to extend PMP Table to support 3-level or 4-level tables by "+
			"using the reserved values in the Mode field' — implemented here; deeper tables "+
			"trade one extra reference per uncached check for 512x reach, freeing entries "+
			"for fast GMSs.")
	return res, nil
}

// runExtSvx builds raw walkers for each translation mode and counts
// references for PMP / PMPT / HPMP — the intro's "4→12 for Sv39" claim
// generalized: N+1 base references become 3(N+1) under a 2-level
// permission table, and HPMP cuts them to N+3.
func runExtSvx(cfg Config) (*Result, error) {
	res := &Result{ID: "ext-svx", Title: "Reference counts vs page-table depth (TLB miss, no PWC)"}
	t := stats.NewTable("ext-svx", "Mode", "Levels", "PMP", "PMPT", "HPMP", "HPMP/PMPT")
	for _, mode := range []addr.Mode{addr.Sv39, addr.Sv48, addr.Sv57} {
		counts := map[string]int{}
		for _, iso := range []string{"PMP", "PMPT", "HPMP"} {
			n, err := countRefs(mode, iso, cfg)
			if err != nil {
				return nil, fmt.Errorf("%v/%s: %w", mode, iso, err)
			}
			counts[iso] = n
		}
		t.AddRow(mode.String(),
			fmt.Sprintf("%d", mode.Levels()),
			fmt.Sprintf("%d", counts["PMP"]),
			fmt.Sprintf("%d", counts["PMPT"]),
			fmt.Sprintf("%d", counts["HPMP"]),
			fmt.Sprintf("%.0f%%", 100*float64(counts["HPMP"])/float64(counts["PMPT"])))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Expected: (N+1) / 3(N+1) / N+3 references for an N-level table — the extra "+
			"dimension grows with depth while HPMP's data-check cost stays constant at 2.")
	return res, nil
}

// countRefs builds a minimal machine with the given translation depth and
// isolation mode and counts one cold access's references.
func countRefs(mode addr.Mode, iso string, cfg Config) (int, error) {
	memSize := cfg.MemSize
	plat := cpu.RocketPlatform()
	mcfg := plat.MMU
	mcfg.Mode = mode
	mcfg.PWCEntries = 0
	plat.MMU = mcfg
	mach := cpu.NewMachine(plat, memSize)
	cfg.observe(mach)

	ptRegion := addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}
	ptAlloc := phys.NewFrameAllocator(ptRegion, false)
	tbl, err := pt.New(mach.Mem, ptAlloc, mode)
	if err != nil {
		return 0, err
	}
	monAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x100_0000, Size: 16 * addr.MiB}, false)
	all := addr.Range{Base: 0, Size: memSize}
	switch iso {
	case "PMP":
		if err := mach.Checker.SetSegment(0, all, perm.RWX, false); err != nil {
			return 0, err
		}
	case "PMPT", "HPMP":
		ptab, err := pmpt.NewTable(mach.Mem, monAlloc, all)
		if err != nil {
			return 0, err
		}
		if err := ptab.SetRangePermPaged(all, perm.RWX); err != nil {
			return 0, err
		}
		entry := 0
		if iso == "HPMP" {
			if err := mach.Checker.SetSegment(0, ptRegion, perm.RW, false); err != nil {
				return 0, err
			}
			entry = 1
		}
		if err := mach.Checker.SetTable(entry, all, ptab.RootBase()); err != nil {
			return 0, err
		}
	}
	va := addr.VA(0x4000_0000)
	if err := tbl.Map(va, 0x800_0000, perm.RW, true); err != nil {
		return 0, err
	}
	mach.MMU.SetRoot(tbl.Root())
	mach.MMU.FlushTLB()
	var r mmu.Result
	if err := mach.MMU.Access(va, perm.Read, perm.U, 0, &r); err != nil {
		return 0, err
	}
	if r.Faulted() {
		return 0, fmt.Errorf("fault: %+v", r)
	}
	return r.TotalRefs(), nil
}

// runExtHints measures a scattered pointer-chase under Penglai-HPMP with
// and without the §9 hot-region ioctl, against the PMP and PMPT bounds.
func runExtHints(cfg Config) (*Result, error) {
	iters := 4000
	if cfg.Quick {
		iters = 800
	}
	res := &Result{ID: "ext-hints", Title: "Hot-region ioctls (§9): pointer-chase latency (cycles)"}
	t := stats.NewTable("ext-hints", "Configuration", "Cycles", "vs PMP")
	type config struct {
		name string
		mode monitor.Mode
		hint bool
	}
	configs := []config{
		{"Penglai-PMP", monitor.ModePMP, false},
		{"Penglai-PMPT", monitor.ModePMPT, false},
		{"Penglai-HPMP", monitor.ModeHPMP, false},
		{"Penglai-HPMP + hint", monitor.ModeHPMP, true},
	}
	var base uint64
	for _, c := range configs {
		cycles, err := hintChase(c.mode, c.hint, iters, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if c.name == "Penglai-PMP" {
			base = cycles
		}
		t.AddRow(c.name, fmt.Sprintf("%d", cycles),
			fmt.Sprintf("%.1f%%", stats.Ratio(float64(cycles), float64(base))))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"The ioctl migrates the hot buffer into a contiguous fast GMS, so even the "+
			"data-page checks ride a segment — HPMP+hint approaches the PMP bound.")
	return res, nil
}

func hintChase(mode monitor.Mode, hint bool, iters int, cfg Config) (uint64, error) {
	sys, err := NewSystem(cpu.RocketPlatform(), mode, cfg)
	if err != nil {
		return 0, err
	}
	e, err := sys.NewEnv("chase", 8192)
	if err != nil {
		return 0, err
	}
	const pages = 256
	buf := e.P.MMap(pages, perm.RW)
	if err := e.Touch(buf, pages*addr.PageSize); err != nil {
		return 0, err
	}
	if hint {
		if _, err := sys.Kern.IoctlCreateHint(e, buf, pages*addr.PageSize); err != nil {
			return 0, err
		}
	}
	sys.Mach.MMU.FlushTLB()
	start := sys.Mach.Core.Now
	rng := uint64(0xfeedbeef)
	for i := 0; i < iters; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		off := (rng % (pages * addr.PageSize / 8)) * 8
		if _, err := e.Load64(buf + addr.VA(off)); err != nil {
			return 0, err
		}
	}
	return sys.Mach.Core.Now - start, nil
}
