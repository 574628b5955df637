package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
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
	// One run-memo unit per (mode, variant): the function runs as a host
	// process or as a fresh enclave, each on its own system.
	plat := cpu.RocketPlatform()
	var units []unit[uint64]
	for _, mode := range AllModes {
		for _, variant := range []string{"host", "enclave"} {
			units = append(units, unit[uint64]{memoKey{collector: "enclave", plat: plat, label: ModeNames[mode] + "/" + variant},
				func(cfg Config) (uint64, error) { return coldInvocation(plat, mode, variant == "enclave", fn, cfg) }})
		}
	}
	lats, err := sharedUnits(cfg, units)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "ext-enclave", Title: "Cold chameleon invocation (cycles, Rocket)"}
	t := stats.NewTable("ext-enclave", "Mode", "Host process", "Fresh enclave", "TEE overhead")
	for m, mode := range AllModes {
		host, enclave := lats[2*m], lats[2*m+1]
		t.AddRow(ModeNames[mode],
			fmt.Sprintf("%d", host),
			fmt.Sprintf("%d", enclave),
			fmt.Sprintf("%+.1f%%", stats.Overhead(float64(enclave), float64(host))))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"The enclave path includes domain creation, two GMS grants (PT pool fast + data), "+
			"the domain switches, and scrubbed teardown. HPMP's table edits make its grant "+
			"cost close to PMPT's while keeping the runtime overhead near PMP.")
	return res, nil
}

// coldInvocation boots one system under mode and returns the cycles of one
// cold invocation of fn: spawned as a host process, or as a fresh enclave
// with 32 MiB of donated memory, run, and torn down.
func coldInvocation(plat cpu.Platform, mode monitor.Mode, enclave bool, fn workloads.Workload, cfg Config) (uint64, error) {
	sys, err := NewSystem(plat, mode, cfg)
	if err != nil {
		return 0, err
	}
	if _, err := sys.NewEnv("invoker", 1024); err != nil {
		return 0, err
	}
	start := sys.Mach.Core.Now
	var p *kernel.Process
	if enclave {
		p, err = sys.Kern.SpawnEnclave(kernel.Image{Name: fn.Name(), TextPages: 32, DataPages: 16}, 32*addr.MiB)
	} else {
		p, err = sys.Kern.Spawn(kernel.Image{Name: fn.Name(), TextPages: 32, DataPages: 16, HeapPages: 32 * 1024})
	}
	if err != nil {
		return 0, err
	}
	if err := sys.Kern.SwitchTo(p.PID); err != nil {
		return 0, err
	}
	if _, err := fn.Run(&kernel.Env{K: sys.Kern, P: p}); err != nil {
		return 0, err
	}
	if err := sys.Kern.Exit(p.PID); err != nil {
		return 0, err
	}
	return sys.Mach.Core.Now - start, nil
}
