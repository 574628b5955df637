package bench

import (
	"fmt"

	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/stats"
	"hpmp/internal/workloads"
)

func init() {
	Register(Experiment{
		ID:       "fig11a",
		Title:    "RV8 benchmark (Rocket, execution time)",
		Figure:   "Fig. 11-a",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostHeavy,
		Run:      runFig11a,
	})
	Register(Experiment{
		ID:       "fig11bc",
		Title:    "GAP benchmark (Rocket + BOOM, normalized latency)",
		Figure:   "Fig. 11-b/c",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostHeavy,
		Run:      runFig11bc,
	})
	Register(Experiment{
		ID:       "fig3b",
		Title:    "Preview: GAP latency, Table vs Segment (BOOM)",
		Figure:   "Fig. 3-b",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostMedium,
		Run:      runFig3b,
	})
}

// suiteUnits declares one run-memo unit per workload. A unit boots the
// PMP, PMPT and HPMP systems and runs the workload once, in a fresh
// long-lived process on the PMP system, with the same process on the other
// two systems as its lockstep peers (kernel.Env.Lockstep): the isolation
// mode changes timing, never the program, so one functional run times all
// three machines. The unit returns the three runs' cycles in AllModes
// order. Each system is watched on its own, so the counters and histograms
// are those of three separate runs. Long-lived means one process per
// (mode, workload): the suite benchmarks run warm, unlike serverless.
// Units run concurrently on the same workload value, so a workload's Run
// keeps its per-run state off the receiver.
func suiteUnits(collector string, plat cpu.Platform, suite []workloads.Workload) []unit[[]uint64] {
	var units []unit[[]uint64]
	for _, w := range suite {
		units = append(units, unit[[]uint64]{memoKey{collector: collector, plat: plat, label: w.Name()},
			func(cfg Config) ([]uint64, error) { return runLockstep(plat, w, cfg) }})
	}
	return units
}

// suiteCycles turns one suite's unit values into cycles[mode][workload].
func suiteCycles(suite []workloads.Workload, vals [][]uint64) map[monitor.Mode]map[string]uint64 {
	out := map[monitor.Mode]map[string]uint64{}
	for m, mode := range AllModes {
		out[mode] = map[string]uint64{}
		for j, w := range suite {
			out[mode][w.Name()] = vals[j][m]
		}
	}
	return out
}

// runLockstep boots one system per isolation mode, in AllModes order, and
// runs w once in a fresh process on the first, with the others' processes
// as its lockstep peers. It returns each system's cycles for the run.
func runLockstep(plat cpu.Platform, w workloads.Workload, cfg Config) ([]uint64, error) {
	envs := make([]*kernel.Env, len(AllModes))
	start := make([]uint64, len(AllModes))
	for i, mode := range AllModes {
		sys, err := NewSystem(plat, mode, cfg)
		if err != nil {
			return nil, err
		}
		if envs[i], err = sys.NewEnv(w.Name(), 96*1024); err != nil {
			return nil, err
		}
		start[i] = envs[i].Now()
	}
	envs[0].Lockstep(envs[1:]...)
	if _, err := w.Run(envs[0]); err != nil {
		return nil, fmt.Errorf("%s under %v with lockstep peers: %w", w.Name(), AllModes[0], err)
	}
	cycles := make([]uint64, len(envs))
	for i, e := range envs {
		cycles[i] = e.Now() - start[i]
	}
	return cycles, nil
}

func rv8ForConfig(cfg Config) []workloads.Workload {
	if !cfg.Quick {
		return workloads.RV8Suite()
	}
	return []workloads.Workload{
		&workloads.AES{Blocks: 96},
		&workloads.Norx{Blocks: 96},
		&workloads.Primes{Limit: 4000},
		&workloads.SHA512{Chunks: 48},
		&workloads.QSort{N: 1024},
		&workloads.Dhrystone{Iterations: 600},
		&workloads.Miniz{N: 6 * 1024},
		&workloads.BigInt{Words: 48, Rounds: 4},
	}
}

func gapScale(cfg Config) int {
	if cfg.Quick {
		return 8
	}
	// Scale 12 (4096 vertices, ~64K directed edges): the CSR and per-vertex
	// arrays overflow the scaled TLB reach, reproducing the paper's
	// walk-bound GAP regime (paper runs scale 20 on the FPGA).
	return 12
}

func runFig11a(cfg Config) (*Result, error) {
	suite := rv8ForConfig(cfg)
	vals, err := sharedUnits(cfg, suiteUnits("rv8", cpu.RocketPlatform(), suite))
	if err != nil {
		return nil, err
	}
	data := suiteCycles(suite, vals)
	res := &Result{ID: "fig11a", Title: "RV8 on Rocket"}
	t := stats.NewTable("RV8 (Rocket)", "Benchmark",
		"Penglai-PMP (Mcyc)", "Penglai-PMPT (Mcyc)", "Penglai-HPMP (Mcyc)",
		"PMPT ovh", "HPMP ovh")
	for _, w := range suite {
		pmp := float64(data[monitor.ModePMP][w.Name()])
		pmpt := float64(data[monitor.ModePMPT][w.Name()])
		hpmp := float64(data[monitor.ModeHPMP][w.Name()])
		t.AddRow(w.Name(),
			fmt.Sprintf("%.3f", pmp/1e6),
			fmt.Sprintf("%.3f", pmpt/1e6),
			fmt.Sprintf("%.3f", hpmp/1e6),
			fmt.Sprintf("%+.2f%%", stats.Overhead(pmpt, pmp)),
			fmt.Sprintf("%+.2f%%", stats.Overhead(hpmp, pmp)))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Paper: PMPT adds 0.0%–1.7% on RV8 (Rocket); HPMP reduces to 0.0%–0.5%.")
	return res, nil
}

// CollectGAP runs the GAP suite on one platform, returning normalized
// latencies (% of PMP). Each kernel's lockstep run of the three modes is
// one run-memo unit, shared by fig11bc and fig3b.
func CollectGAP(plat cpu.Platform, cfg Config) (map[string]map[monitor.Mode]float64, []string, error) {
	suite := workloads.GAPSuite(gapScale(cfg))
	vals, err := sharedUnits(cfg, suiteUnits("gap", plat, suite))
	if err != nil {
		return nil, nil, err
	}
	norm, names := normalizeGAP(suite, vals)
	return norm, names, nil
}

// normalizeGAP turns one platform's GAP unit values into latencies
// normalized to PMP, keyed by kernel, and the kernel names in suite order.
func normalizeGAP(suite []workloads.Workload, vals [][]uint64) (map[string]map[monitor.Mode]float64, []string) {
	data := suiteCycles(suite, vals)
	out := map[string]map[monitor.Mode]float64{}
	var names []string
	for _, w := range suite {
		names = append(names, w.Name())
		pmp := float64(data[monitor.ModePMP][w.Name()])
		out[w.Name()] = map[monitor.Mode]float64{
			monitor.ModePMP:  100,
			monitor.ModePMPT: stats.Ratio(float64(data[monitor.ModePMPT][w.Name()]), pmp),
			monitor.ModeHPMP: stats.Ratio(float64(data[monitor.ModeHPMP][w.Name()]), pmp),
		}
	}
	return out, names
}

// runFig11bc hands both platforms' GAP units to one sharedUnits call, so
// the BOOM half does not wait for the Rocket half.
func runFig11bc(cfg Config) (*Result, error) {
	suite := workloads.GAPSuite(gapScale(cfg))
	var units []unit[[]uint64]
	for _, p := range paperPlatforms {
		units = append(units, suiteUnits("gap", p.plat, suite)...)
	}
	vals, err := sharedUnits(cfg, units)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig11bc", Title: "GAP normalized latency (PMP = 100%)"}
	per := len(vals) / len(paperPlatforms)
	for i, p := range paperPlatforms {
		norm, names := normalizeGAP(suite, vals[i*per:(i+1)*per])
		t := stats.NewTable(fmt.Sprintf("GAP (%s)", p.name),
			"Kernel", "Penglai-PMP", "Penglai-PMPT", "Penglai-HPMP")
		for _, n := range names {
			t.AddRow(n, "100.0",
				fmt.Sprintf("%.1f", norm[n][monitor.ModePMPT]),
				fmt.Sprintf("%.1f", norm[n][monitor.ModeHPMP]))
		}
		res.Tables = append(res.Tables, t)
	}
	res.Notes = append(res.Notes,
		"Paper: PMPT +1.2–6.7% (Rocket), +1.8–9.6% (BOOM); HPMP ≤1.4% / ≤2.4%.",
		fmt.Sprintf("Graph: Kron scale %d, edge factor 8 (paper: scale 20; scaled for simulation time).", gapScale(cfg)))
	return res, nil
}

func runFig3b(cfg Config) (*Result, error) {
	norm, names, err := CollectGAP(cpu.BOOMPlatform(), cfg)
	if err != nil {
		return nil, err
	}
	var ratios []float64
	for _, n := range names {
		ratios = append(ratios, norm[n][monitor.ModePMPT])
	}
	return fig3Preview("fig3b", "GAP latency normalized to Segment (BOOM)", ratios, false), nil
}
