package bench

import (
	"fmt"

	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/simcfg"
	"hpmp/internal/stats"
	"hpmp/internal/workloads"
)

func init() {
	Register(Experiment{
		ID:       "fig12ab",
		Title:    "FunctionBench (Rocket + BOOM, normalized latency)",
		Figure:   "Fig. 12-a/b",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel."},
		Cost:     CostHeavy,
		Run:      runFig12ab,
	})
	Register(Experiment{
		ID:       "fig12c",
		Title:    "Serverless image-processing chain (image size sweep)",
		Figure:   "Fig. 12-c",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostMedium,
		Run:      runFig12c,
	})
	Register(Experiment{
		ID:       "fig17",
		Title:    "FunctionBench with 8- vs 32-entry PWC (Rocket)",
		Figure:   "Fig. 17",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor.", "ptw."},
		Cost:     CostHeavy,
		Run:      runFig17,
	})
	Register(Experiment{
		ID:       "fig3c",
		Title:    "Preview: serverless latency, Table vs Segment (BOOM)",
		Figure:   "Fig. 3-c",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostMedium,
		Run:      runFig3c,
	})
}

func funcBenchForConfig(cfg Config) []workloads.Workload {
	if !cfg.Quick {
		return workloads.FuncBenchSuite()
	}
	return []workloads.Workload{
		&workloads.Chameleon{Rows: 24, Cols: 8},
		&workloads.DD{Blocks: 48, BlockSize: 4096},
		&workloads.GzipFunc{N: 6 * 1024},
		&workloads.Linpack{N: 16},
		&workloads.Matmul{N: 16},
		&workloads.PyAES{Blocks: 32},
		&workloads.ImageFunc{Width: 40, Height: 40},
	}
}

// runServerless executes one function as a fresh short-lived process
// (cold TLB, demand paging — the serverless regime) and returns the
// invocation latency in cycles: spawn → run → exit.
func runServerless(sys *System, w workloads.Workload) (uint64, error) {
	start := sys.Mach.Core.Now
	p, err := sys.Kern.Spawn(kernel.Image{Name: w.Name(), TextPages: 48, DataPages: 32, HeapPages: 96 * 1024})
	if err != nil {
		return 0, err
	}
	if err := sys.Kern.SwitchTo(p.PID); err != nil {
		return 0, err
	}
	e := &kernel.Env{K: sys.Kern, P: p}
	// Cold start: the function's entry code pages fault in; a failure
	// there is Run's error.
	e.FetchAt(p.Code())
	if _, err := w.Run(e); err != nil {
		return 0, err
	}
	if err := sys.Kern.Exit(p.PID); err != nil {
		return 0, err
	}
	return sys.Mach.Core.Now - start, nil
}

// serverlessSide is one machine family a serverless experiment measures:
// a platform and its PWC override (0 keeps the platform's own).
type serverlessSide struct {
	plat       cpu.Platform
	pwcEntries int
}

// collectServerless measures all functions on every side for the three
// TEE modes plus the non-secure Host-PMP baseline, returning
// cycles[side][function][label] and the function names. Each label's
// system is one run-memo unit, keyed by the effective platform: fig12ab,
// fig3c and fig17's 8-entry-PWC half share them. All sides' units go to
// one sharedUnits call, so no side waits for another's.
func collectServerless(cfg Config, sides ...serverlessSide) ([]map[string]map[string]uint64, []string, error) {
	suite := funcBenchForConfig(cfg)
	var names []string
	for _, w := range suite {
		names = append(names, w.Name())
	}
	var units []unit[map[string]uint64]
	var side []int // side[i] is the side unit i measures
	for i, sd := range sides {
		plat := sd.plat
		if sd.pwcEntries > 0 {
			plat.MMU.PWCEntries = sd.pwcEntries
		}
		add := func(label string, boot func(Config) (*System, error)) {
			units = append(units, unit[map[string]uint64]{memoKey{collector: "serverless", plat: plat, label: label},
				func(cfg Config) (map[string]uint64, error) { return invokeSuite(label, boot, suite, cfg) }})
			side = append(side, i)
		}
		add("Host-PMP", func(cfg Config) (*System, error) { return NewHostSystem(plat, cfg) })
		for _, mode := range AllModes {
			add("PL-"+ModeNames[mode], func(cfg Config) (*System, error) { return NewSystem(plat, mode, cfg) })
		}
	}
	cycles, err := sharedUnits(cfg, units)
	if err != nil {
		return nil, nil, err
	}
	out := make([]map[string]map[string]uint64, len(sides))
	for i := range out {
		out[i] = map[string]map[string]uint64{}
		for _, n := range names {
			out[i][n] = map[string]uint64{}
		}
	}
	for i, u := range units {
		for name, c := range cycles[i] {
			out[side[i]][name][u.key.label] = c
		}
	}
	return out, names, nil
}

// invokeSuite boots one system and invokes every function of the suite on
// it, returning each function's mean invocation latency in cycles.
func invokeSuite(label string, boot func(Config) (*System, error), suite []workloads.Workload, cfg Config) (map[string]uint64, error) {
	sys, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	// A warm host process exists (the invoker); functions spawn fresh.
	if _, err := sys.NewEnv("invoker", 1024); err != nil {
		return nil, err
	}
	// Two invocations per function, averaged: serverless platforms report
	// mean latency, and the second run damps DRAM/cache layout noise
	// between isolation modes. Workload.ServerlessReps scales the
	// invocation count for churn studies.
	reps := simcfg.Or(cfg.Workload.ServerlessReps, 2)
	out := map[string]uint64{}
	for _, w := range suite {
		var total uint64
		for rep := 0; rep < reps; rep++ {
			cycles, err := runServerless(sys, w)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", label, w.Name(), err)
			}
			total += cycles
		}
		out[w.Name()] = total / uint64(reps)
	}
	return out, nil
}

func runFig12ab(cfg Config) (*Result, error) {
	var sides []serverlessSide
	for _, p := range paperPlatforms {
		sides = append(sides, serverlessSide{plat: p.plat})
	}
	perSide, names, err := collectServerless(cfg, sides...)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig12ab", Title: "FunctionBench latency normalized to Penglai-PMP"}
	for i, p := range paperPlatforms {
		data := perSide[i]
		cols := []string{"Host-PMP", "PL-PMP", "PL-PMPT", "PL-HPMP"}
		t := stats.NewTable(fmt.Sprintf("FunctionBench (%s)", p.name),
			append([]string{"Function"}, cols...)...)
		var pmptOvh, hpmpOvh []float64
		for _, n := range names {
			base := float64(data[n]["PL-PMP"])
			row := []string{n}
			for _, c := range cols {
				row = append(row, fmt.Sprintf("%.1f", stats.Ratio(float64(data[n][c]), base)))
			}
			t.AddRow(row...)
			pmptOvh = append(pmptOvh, stats.Ratio(float64(data[n]["PL-PMPT"]), base)-100)
			hpmpOvh = append(hpmpOvh, stats.Ratio(float64(data[n]["PL-HPMP"]), base)-100)
		}
		res.Tables = append(res.Tables, t)
		lo1, hi1 := stats.MinMax(pmptOvh)
		lo2, hi2 := stats.MinMax(hpmpOvh)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: PMPT overhead %.1f%%–%.1f%% (avg %.1f%%); HPMP %.1f%%–%.1f%% (avg %.1f%%).",
			p.name, lo1, hi1, stats.Mean(pmptOvh), lo2, hi2, stats.Mean(hpmpOvh)))
	}
	res.Notes = append(res.Notes,
		"Paper: PMPT +1.0–14.3% Rocket (avg 5.1%), +5.5–20.3% BOOM (avg 14.1%); HPMP avg 2.0%/3.5%.")
	return res, nil
}

// runChain boots one system under mode, with a warm gateway process, and
// returns the cycles of the 4-function image chain on it.
func runChain(plat cpu.Platform, mode monitor.Mode, size int, cfg Config) (uint64, error) {
	sys, err := NewSystem(plat, mode, cfg)
	if err != nil {
		return 0, err
	}
	if _, err := sys.NewEnv("gateway", 1024); err != nil {
		return 0, err
	}
	c, err := chainCycles(sys, size)
	if err != nil {
		return 0, fmt.Errorf("size %d mode %v: %w", size, mode, err)
	}
	return c, nil
}

// chainCycles executes the image chain on sys: each stage is a fresh
// process; the payload moves through monitor IPC (or plain copy on a
// system without a monitor).
func chainCycles(sys *System, size int) (uint64, error) {
	chain := &workloads.ImageChain{Size: size}
	start := sys.Mach.Core.Now
	var payload []byte
	for stage := 0; stage < workloads.StageCount; stage++ {
		p, err := sys.Kern.Spawn(kernel.Image{
			Name: fmt.Sprintf("img-%d", stage), TextPages: 32, DataPages: 16, HeapPages: 64 * 1024})
		if err != nil {
			return 0, err
		}
		if err := sys.Kern.SwitchTo(p.PID); err != nil {
			return 0, err
		}
		e := &kernel.Env{K: sys.Kern, P: p}
		e.FetchAt(p.Code()) // a failure here is RunStage's error
		payload, err = chain.RunStage(e, stage, payload)
		if err != nil {
			return 0, err
		}
		if sys.Mon != nil {
			// Hand the payload to the next function through the monitor.
			if _, err := sys.Mon.SendMessage(monitor.HostDomain, payload); err != nil {
				return 0, err
			}
			if _, _, err := sys.Mon.ReceiveMessage(monitor.HostDomain); err != nil {
				return 0, err
			}
		}
		if err := sys.Kern.Exit(p.PID); err != nil {
			return 0, err
		}
	}
	return sys.Mach.Core.Now - start, nil
}

func runFig12c(cfg Config) (*Result, error) {
	sizes := []int{32, 64, 128, 256}
	if cfg.Quick {
		sizes = []int{32, 64}
	}
	// One run-memo unit per (size, mode): each boots its own system.
	plat := cpu.RocketPlatform()
	var units []unit[uint64]
	for _, size := range sizes {
		for _, mode := range AllModes {
			units = append(units, unit[uint64]{memoKey{collector: "imgchain", plat: plat, label: fmt.Sprintf("%d/%s", size, ModeNames[mode])},
				func(cfg Config) (uint64, error) { return runChain(plat, mode, size, cfg) }})
		}
	}
	lats, err := sharedUnits(cfg, units)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig12c", Title: "Image-processing chain, normalized latency vs image size"}
	t := stats.NewTable("Fig 12-c (Rocket)", "Size", "PL-PMP", "PL-PMPT", "PL-HPMP",
		"PL-PMP Mcyc")
	for i, size := range sizes {
		lat := map[monitor.Mode]uint64{}
		for m, mode := range AllModes {
			lat[mode] = lats[i*len(AllModes)+m]
		}
		base := float64(lat[monitor.ModePMP])
		t.AddRow(fmt.Sprintf("%dx%d", size, size),
			"100.0",
			fmt.Sprintf("%.1f", stats.Ratio(float64(lat[monitor.ModePMPT]), base)),
			fmt.Sprintf("%.1f", stats.Ratio(float64(lat[monitor.ModeHPMP]), base)),
			fmt.Sprintf("%.2f", base/1e6))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Paper: PMPT overhead shrinks 29.7%→1.6% as the image grows (compute amortizes); HPMP 0.3–6.7%.")
	return res, nil
}

func runFig17(cfg Config) (*Result, error) {
	res := &Result{ID: "fig17", Title: "FunctionBench with different PWC sizes (Rocket)"}
	perPWC, names, err := collectServerless(cfg,
		serverlessSide{plat: cpu.RocketPlatform(), pwcEntries: 8},
		serverlessSide{plat: cpu.RocketPlatform(), pwcEntries: 32})
	if err != nil {
		return nil, err
	}
	data8, data32 := perPWC[0], perPWC[1]
	t := stats.NewTable("Fig 17", "Function",
		"PMP(8)", "PMP(32)", "PMPT(8)", "PMPT(32)", "HPMP(8)", "HPMP(32)")
	for _, n := range names {
		base := float64(data8[n]["PL-PMP"])
		t.AddRow(n,
			"100.0",
			fmt.Sprintf("%.1f", stats.Ratio(float64(data32[n]["PL-PMP"]), base)),
			fmt.Sprintf("%.1f", stats.Ratio(float64(data8[n]["PL-PMPT"]), base)),
			fmt.Sprintf("%.1f", stats.Ratio(float64(data32[n]["PL-PMPT"]), base)),
			fmt.Sprintf("%.1f", stats.Ratio(float64(data8[n]["PL-HPMP"]), base)),
			fmt.Sprintf("%.1f", stats.Ratio(float64(data32[n]["PL-HPMP"]), base)))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Paper: a larger PWC helps little for short-lived functions; HPMP(8) still beats PMPT(32).")
	return res, nil
}

func runFig3c(cfg Config) (*Result, error) {
	perSide, names, err := collectServerless(cfg, serverlessSide{plat: cpu.BOOMPlatform()})
	if err != nil {
		return nil, err
	}
	data := perSide[0]
	var ratios []float64
	for _, n := range names {
		ratios = append(ratios, stats.Ratio(float64(data[n]["PL-PMPT"]), float64(data[n]["PL-PMP"])))
	}
	return fig3Preview("fig3c", "Serverless latency normalized to Segment (BOOM)", ratios, false), nil
}
