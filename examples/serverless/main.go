// Serverless example: run FunctionBench-style short-lived functions as
// fresh enclave-hosted processes under the three isolation modes and
// report per-invocation latency — the paper's §8.4 case study in miniature.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/workloads"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, writing its report to out.
func run(out io.Writer) error {
	const memSize = 512 * addr.MiB
	functions := []workloads.Workload{
		&workloads.Chameleon{Rows: 40, Cols: 8},
		&workloads.Matmul{N: 24},
		&workloads.ImageFunc{Width: 48, Height: 48},
	}

	fmt.Fprintf(out, "%-12s", "function")
	for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP} {
		fmt.Fprintf(out, "  %12s", "Penglai-"+map[monitor.Mode]string{
			monitor.ModePMP: "PMP", monitor.ModePMPT: "PMPT", monitor.ModeHPMP: "HPMP"}[mode])
	}
	fmt.Fprintln(out, "  (cycles per cold invocation)")

	for _, fn := range functions {
		fmt.Fprintf(out, "%-12s", fn.Name())
		for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP} {
			mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
			mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
			if err != nil {
				return err
			}
			k, err := kernel.New(mach, mon, kernel.DefaultConfig(memSize))
			if err != nil {
				return err
			}

			// Each invocation is a fresh process: cold TLB, cold page
			// tables, demand paging — the serverless regime.
			start := mach.Core.Now
			p, err := k.Spawn(kernel.Image{Name: fn.Name(), TextPages: 32, DataPages: 16, HeapPages: 64 * 1024})
			if err != nil {
				return err
			}
			env, err := k.NewEnv(p)
			if err != nil {
				return err
			}
			env.FetchAt(p.Code())
			if _, err := fn.Run(env); err != nil {
				return err
			}
			if err := k.Exit(p.PID); err != nil {
				return err
			}
			fmt.Fprintf(out, "  %12d", mach.Core.Now-start)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "\nExpect: PMPT slowest (extra-dimensional walks), HPMP close to PMP.")
	return nil
}
