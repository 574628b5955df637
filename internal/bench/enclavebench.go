package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/stats"
	"hpmp/internal/workloads"
)

func init() {
	Register(Experiment{
		ID:       "ext-enclave",
		Title:    "Enclave-hosted vs host-hosted serverless invocations",
		Figure:   "extension (§6 deployment models)",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostMedium,
		Run:      runExtEnclave,
	})
}

// runExtEnclave measures the paper's actual deployment model: each
// invocation is a *fresh enclave* (create → donate memory → run → destroy),
// compared against the same function as a plain host process. The enclave
// path adds the monitor's lifecycle costs (domain create, two GMS grants
// with their table edits, domain switches, scrubbed teardown) on top of
// the translation overheads — the full TEE price of a cold serverless
// invocation.
func runExtEnclave(cfg Config) (*Result, error) {
	fn := &workloads.Chameleon{Rows: 48, Cols: 10}
	if cfg.Quick {
		fn = &workloads.Chameleon{Rows: 20, Cols: 8}
	}
	res := &Result{ID: "ext-enclave", Title: "Cold chameleon invocation (cycles, Rocket)"}
	t := stats.NewTable("ext-enclave", "Mode", "Host process", "Fresh enclave", "TEE overhead")
	for _, mode := range AllModes {
		var lat [2]uint64
		for variant := 0; variant < 2; variant++ {
			sys, err := NewSystem(cpu.RocketPlatform(), mode, cfg)
			if err != nil {
				return nil, err
			}
			if _, err := sys.NewEnv("invoker", 1024); err != nil {
				return nil, err
			}
			start := sys.Mach.Core.Now
			var p *kernel.Process
			if variant == 0 {
				p, err = sys.Kern.Spawn(kernel.Image{Name: fn.Name(), TextPages: 32, DataPages: 16, HeapPages: 32 * 1024})
			} else {
				p, err = sys.Kern.SpawnEnclave(kernel.Image{Name: fn.Name(), TextPages: 32, DataPages: 16}, 32*addr.MiB)
			}
			if err != nil {
				return nil, err
			}
			if err := sys.Kern.SwitchTo(p.PID); err != nil {
				return nil, err
			}
			if _, err := fn.Run(&kernel.Env{K: sys.Kern, P: p}); err != nil {
				return nil, err
			}
			if err := sys.Kern.Exit(p.PID); err != nil {
				return nil, err
			}
			lat[variant] = sys.Mach.Core.Now - start
		}
		t.AddRow(ModeNames[mode],
			fmt.Sprintf("%d", lat[0]),
			fmt.Sprintf("%d", lat[1]),
			fmt.Sprintf("%+.1f%%", stats.Overhead(float64(lat[1]), float64(lat[0]))))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"The enclave path includes domain creation, two GMS grants (PT pool fast + data), "+
			"the domain switches, and scrubbed teardown. HPMP's table edits make its grant "+
			"cost close to PMPT's while keeping the runtime overhead near PMP.")
	return res, nil
}
