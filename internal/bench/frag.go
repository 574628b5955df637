package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/stats"
)

func init() {
	Register(Experiment{
		ID:       "fig15",
		Title:    "Memory fragmentation (VA × PA layouts)",
		Figure:   "Fig. 15",
		Counters: []string{"cpu.", "mmu.", "mem."},
		Cost:     CostMedium,
		Run:      runFig15,
	})
	Register(Experiment{
		ID:       "fig16",
		Title:    "Caching for the permission table (PMPTW-Cache)",
		Figure:   "Fig. 16",
		Counters: []string{"cpu.", "mmu.", "mem.", "pmptw."},
		Cost:     CostMedium,
		Run:      runFig16,
	})
}

// fig16CacheEntries is the PMPTW-Cache size of Fig. 16: the paper's
// prototype has 8 entries (§8.9).
const fig16CacheEntries = 8

// fragProbe measures the total latency of touching nPages pages under a
// VA/PA layout combination, after pre-faulting them (so the measurement is
// pure translation + data, no page-fault handling).
//
//   - fragVA: consecutive accesses jump 8 GiB + 4 KiB apart (the paper's
//     Fragmented-VA recipe) instead of walking adjacent pages.
//   - fragPA: the kernel's frame allocator hands out scattered frames.
//   - pmptwCache: attaches a fig16CacheEntries-entry PMPTW-Cache after
//     boot (Fig. 16).
func fragProbe(mode monitor.Mode, fragVA, fragPA, pmptwCache bool, nPages int, cfg Config) (uint64, error) {
	kcfg := kernel.DefaultConfig(cfg.MemSize)
	kcfg.ScatterFrames = fragPA
	sys, err := bootSystem(cpu.RocketPlatform(), monitor.DefaultConfig(mode), &kcfg, cfg)
	if err != nil {
		return 0, err
	}
	mach, k := sys.Mach, sys.Kern
	p, err := k.Spawn(kernel.Image{Name: "frag", TextPages: 8, DataPages: 8})
	if err != nil {
		return 0, err
	}
	e, err := k.NewEnv(p)
	if err != nil {
		return 0, err
	}
	if pmptwCache {
		mach.AttachPMPTWCache(fig16CacheEntries)
	}

	// Build the VA list.
	vas := make([]addr.VA, nPages)
	if fragVA {
		// 8 GiB + 4 KiB stride (paper §8.8): every access misses TLB and
		// upper-level PWC entries.
		stride := addr.VA(8*addr.GiB + 4*addr.KiB)
		base := addr.VA(0x10_0000_0000)
		for i := range vas {
			va := base + addr.VA(i)*stride
			// Wrap inside the canonical Sv39 half.
			va &= (1 << 38) - 1
			vas[i] = va.PageBase()
		}
	} else {
		base := p.MMap(nPages, perm.RW)
		for i := range vas {
			vas[i] = base + addr.VA(i*addr.PageSize)
		}
	}
	if fragVA {
		// Cover the scattered VAs with one big anonymous VMA each.
		for _, va := range vas {
			if _, ok := pageVMA(p, va); !ok {
				p.AddVMAAt(va, 1, perm.RW)
			}
		}
	}
	// Pre-fault everything.
	for _, va := range vas {
		if err := e.Touch(va, addr.PageSize); err != nil {
			return 0, err
		}
	}
	// Cold translation state, warm-ish caches: flush TLB+PWC only.
	mach.MMU.FlushTLB()
	if mach.PMPTWCache != nil {
		mach.PMPTWCache.FlushAll()
	}

	// The measurement loop is a pure serial reference stream — exactly the
	// shape AccessBatch batches: each access issues at the cycle the
	// previous one retired.
	start := mach.Core.Now
	reqs := make([]mmu.AccessReq, len(vas))
	for i, va := range vas {
		reqs[i] = mmu.AccessReq{VA: va, Kind: perm.Read, Priv: perm.U}
	}
	out := make([]mmu.Result, len(vas))
	end, err := mach.MMU.AccessBatch(reqs, out, mach.Core.Now)
	if err != nil {
		return 0, err
	}
	for i := range out {
		if out[i].Faulted() {
			return 0, fmt.Errorf("fragProbe: fault at %v: %+v", vas[i], out[i])
		}
	}
	mach.Core.Now = end
	return mach.Core.Now - start, nil
}

func pageVMA(p *kernel.Process, va addr.VA) (kernel.VMA, bool) {
	return p.VMAFor(va)
}

func fragPages(cfg Config) int {
	if cfg.Quick {
		return 16
	}
	return 32
}

// fragCell is one fragProbe measurement, on its own freshly booted system.
type fragCell struct {
	mode                       monitor.Mode
	fragVA, fragPA, pmptwCache bool
}

// fragLatencies measures every cell, one run-memo unit per cell. The key
// names the probe's parameters, so fig15 and fig16 share the cells they
// both measure (fragmented PA, no PMPTW-Cache).
func fragLatencies(cfg Config, cells []fragCell) ([]uint64, error) {
	n := fragPages(cfg)
	units := make([]unit[uint64], len(cells))
	for i, c := range cells {
		label := fmt.Sprintf("%s/va=%t/pa=%t/cache=%t", ModeNames[c.mode], c.fragVA, c.fragPA, c.pmptwCache)
		units[i] = unit[uint64]{memoKey{collector: "frag", plat: cpu.RocketPlatform(), label: label},
			func(cfg Config) (uint64, error) { return fragProbe(c.mode, c.fragVA, c.fragPA, c.pmptwCache, n, cfg) }}
	}
	return sharedUnits(cfg, units)
}

// fragLayouts is the VA axis of Figs. 15 and 16.
var fragLayouts = []struct {
	frag bool
	name string
}{{false, "Contiguous-VA"}, {true, "Fragmented-VA"}}

func runFig15(cfg Config) (*Result, error) {
	pas := []struct {
		frag  bool
		title string
	}{{false, "Fig 15-a: contiguous physical pages"}, {true, "Fig 15-b: fragmented physical pages"}}
	var cells []fragCell
	for _, pa := range pas {
		for _, va := range fragLayouts {
			for _, mode := range AllModes {
				cells = append(cells, fragCell{mode: mode, fragVA: va.frag, fragPA: pa.frag})
			}
		}
	}
	lats, err := fragLatencies(cfg, cells)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig15", Title: "Fragmentation: total latency of touching pages (cycles, Rocket)"}
	for _, pa := range pas {
		t := stats.NewTable(pa.title, "VA layout", "PMP", "PMPT", "HPMP")
		for _, va := range fragLayouts {
			row := []string{va.name}
			for range AllModes {
				row = append(row, fmt.Sprintf("%d", lats[0]))
				lats = lats[1:]
			}
			t.AddRow(row...)
		}
		res.Tables = append(res.Tables, t)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d pages touched after a TLB/PWC flush; caches warm (paper §8.8 methodology).", fragPages(cfg)),
		"Paper: fragmentation hurts everywhere; HPMP < PMPT in all four quadrants.")
	return res, nil
}

func runFig16(cfg Config) (*Result, error) {
	cols := []fragCell{
		{mode: monitor.ModePMPT},
		{mode: monitor.ModePMPT, pmptwCache: true},
		{mode: monitor.ModeHPMP},
		{mode: monitor.ModeHPMP, pmptwCache: true},
		{mode: monitor.ModePMP},
	}
	var cells []fragCell
	for _, va := range fragLayouts {
		for _, c := range cols {
			c.fragVA, c.fragPA = va.frag, true
			cells = append(cells, c)
		}
	}
	lats, err := fragLatencies(cfg, cells)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig16", Title: "PMPTW-Cache impact (cycles, Rocket; fragmented physical pages)"}
	t := stats.NewTable("Fig 16", "VA layout",
		"PMPT", "PMPT-Cache", "HPMP", "HPMP-Cache", "PMP")
	for _, va := range fragLayouts {
		row := []string{va.name}
		for range cols {
			row = append(row, fmt.Sprintf("%d", lats[0]))
			lats = lats[1:]
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Paper: caching helps PMPT most on Fragmented-VA; HPMP+Cache is best everywhere "+
			"because HPMP removes PT-page checks by construction while the cache absorbs data-page checks.")
	return res, nil
}
