package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/stats"
)

func init() {
	Register(Experiment{
		ID:       "table3",
		Title:    "Costs of OS operations (LMBench, BOOM)",
		Figure:   "Table 3",
		Counters: []string{"cpu.", "mmu.", "mem."},
		Cost:     CostMedium,
		Run:      runTable3,
	})
}

// lmbenchOp is one Table 3 row.
type lmbenchOp struct {
	name string
	// iters: repetitions per measurement (cheap ops need more for stable
	// means).
	iters int
	run   func(s *System, e *kernel.Env, peer *kernel.Process) error
}

func lmbenchOps(quick bool) []lmbenchOp {
	scale := 1
	if quick {
		scale = 1
	}
	return []lmbenchOp{
		{"null", 20 * scale, func(s *System, e *kernel.Env, _ *kernel.Process) error {
			return s.Kern.SyscallNull()
		}},
		{"read", 10 * scale, func(s *System, e *kernel.Env, _ *kernel.Process) error {
			return s.Kern.SyscallRead(e, e.P.Heap(), 1024)
		}},
		{"write", 10 * scale, func(s *System, e *kernel.Env, _ *kernel.Process) error {
			return s.Kern.SyscallWrite(e, e.P.Heap(), 512)
		}},
		{"stat", 10 * scale, func(s *System, e *kernel.Env, _ *kernel.Process) error {
			return s.Kern.SyscallStat(6)
		}},
		{"fstat", 10 * scale, func(s *System, e *kernel.Env, _ *kernel.Process) error {
			return s.Kern.SyscallFstat()
		}},
		{"open/close", 10 * scale, func(s *System, e *kernel.Env, _ *kernel.Process) error {
			return s.Kern.SyscallOpenClose(6)
		}},
		{"pipe", 6 * scale, func(s *System, e *kernel.Env, peer *kernel.Process) error {
			return s.Kern.SyscallPipe(e, peer, 64)
		}},
		{"fork+exit", 3, func(s *System, e *kernel.Env, _ *kernel.Process) error {
			return s.Kern.ForkExit(e)
		}},
		{"fork+exec", 3, func(s *System, e *kernel.Env, _ *kernel.Process) error {
			return s.Kern.ForkExec(e, kernel.Image{Name: "child", TextPages: 24, DataPages: 12})
		}},
	}
}

// measureLMBench runs the op suite on one system and returns mean cycles
// per op.
func measureLMBench(mode monitor.Mode, cfg Config) (map[string]float64, error) {
	// Steady-state host: physical memory is fragmented (long uptime), so
	// kernel-structure frames — and with them the permission-table entries
	// covering them — are spread across DRAM, as on the paper's testbed.
	kcfg := kernel.DefaultConfig(cfg.MemSize)
	kcfg.ScatterFrames = true
	sys, err := bootSystem(cpu.BOOMPlatform(), monitor.DefaultConfig(mode), &kcfg, cfg)
	if err != nil {
		return nil, err
	}
	e, err := sys.NewEnv("lmbench", 8192)
	if err != nil {
		return nil, err
	}
	// Pre-touch the working set like LMBench's warmup pass, and fault in
	// some heap pages for the copy buffers.
	if err := e.Touch(e.P.Heap(), 64*addr.PageSize); err != nil {
		return nil, err
	}
	peer, err := sys.Kern.Spawn(kernel.Image{Name: "peer", TextPages: 8, DataPages: 8})
	if err != nil {
		return nil, err
	}
	if err := sys.Kern.SwitchTo(e.P.PID); err != nil {
		return nil, err
	}

	out := map[string]float64{}
	for _, op := range lmbenchOps(cfg.Quick) {
		// Warmup.
		if err := op.run(sys, e, peer); err != nil {
			return nil, fmt.Errorf("%s warmup: %w", op.name, err)
		}
		start := sys.Mach.Core.Now
		for i := 0; i < op.iters; i++ {
			if err := op.run(sys, e, peer); err != nil {
				return nil, fmt.Errorf("%s: %w", op.name, err)
			}
		}
		out[op.name] = float64(sys.Mach.Core.Now-start) / float64(op.iters)
	}
	return out, nil
}

// CollectTable3 measures all three modes, one run-memo unit per mode.
func CollectTable3(cfg Config) (map[monitor.Mode]map[string]float64, error) {
	var units []unit[map[string]float64]
	for _, mode := range AllModes {
		units = append(units, unit[map[string]float64]{memoKey{collector: "lmbench", plat: cpu.BOOMPlatform(), label: ModeNames[mode]},
			func(cfg Config) (map[string]float64, error) { return measureLMBench(mode, cfg) }})
	}
	vals, err := sharedUnits(cfg, units)
	if err != nil {
		return nil, err
	}
	out := map[monitor.Mode]map[string]float64{}
	for i, mode := range AllModes {
		out[mode] = vals[i]
	}
	return out, nil
}

func runTable3(cfg Config) (*Result, error) {
	data, err := CollectTable3(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "table3", Title: "Costs of OS operations (BOOM, cycles per op)"}
	t := stats.NewTable("Table 3", "Syscall", "PMP", "PMPT", "HPMP", "PMPT/HPMP")
	var ratios []float64
	for _, op := range lmbenchOps(cfg.Quick) {
		pmp := data[monitor.ModePMP][op.name]
		pmpt := data[monitor.ModePMPT][op.name]
		hpmp := data[monitor.ModeHPMP][op.name]
		ratio := stats.Ratio(pmpt, hpmp)
		ratios = append(ratios, ratio)
		t.AddRow(op.name,
			fmt.Sprintf("%.0f", pmp),
			fmt.Sprintf("%.0f", pmpt),
			fmt.Sprintf("%.0f", hpmp),
			fmt.Sprintf("%.2f%%", ratio))
	}
	t.AddRow("Avg", "", "", "", fmt.Sprintf("%.2f%%", stats.Mean(ratios)))
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Paper reports ms on the FPGA; the simulator reports cycles per operation. "+
			"The comparison column (PMPT/HPMP) is the paper's, avg 128.43% in Table 3.")
	return res, nil
}
