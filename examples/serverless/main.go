// Serverless example: run FunctionBench-style short-lived functions as
// fresh enclave-hosted processes under the three isolation modes and
// report per-invocation latency — the paper's §8.4 case study in miniature.
package main

import (
	"fmt"
	"log"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/workloads"
)

func main() {
	const memSize = 512 * addr.MiB
	functions := []workloads.Workload{
		&workloads.Chameleon{Rows: 40, Cols: 8},
		&workloads.Matmul{N: 24},
		&workloads.ImageFunc{Width: 48, Height: 48},
	}

	fmt.Printf("%-12s", "function")
	for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP} {
		fmt.Printf("  %12s", "Penglai-"+map[monitor.Mode]string{
			monitor.ModePMP: "PMP", monitor.ModePMPT: "PMPT", monitor.ModeHPMP: "HPMP"}[mode])
	}
	fmt.Println("  (cycles per cold invocation)")

	for _, fn := range functions {
		fmt.Printf("%-12s", fn.Name())
		for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP} {
			mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
			mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
			if err != nil {
				log.Fatal(err)
			}
			k, err := kernel.New(mach, mon, kernel.DefaultConfig(memSize))
			if err != nil {
				log.Fatal(err)
			}

			// Each invocation is a fresh process: cold TLB, cold page
			// tables, demand paging — the serverless regime.
			start := mach.Core.Now
			p, err := k.Spawn(kernel.Image{Name: fn.Name(), TextPages: 32, DataPages: 16, HeapPages: 64 * 1024})
			if err != nil {
				log.Fatal(err)
			}
			env, err := k.NewEnv(p)
			if err != nil {
				log.Fatal(err)
			}
			env.FetchAt(p.Code())
			if _, err := fn.Run(env); err != nil {
				log.Fatal(err)
			}
			if err := k.Exit(p.PID); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %12d", mach.Core.Now-start)
		}
		fmt.Println()
	}
	fmt.Println("\nExpect: PMPT slowest (extra-dimensional walks), HPMP close to PMP.")
}
