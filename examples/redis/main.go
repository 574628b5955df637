// Redis example: run the in-memory data store inside the simulated TEE and
// benchmark a few command types under the three isolation modes, printing
// requests-per-second of simulated time (the paper's §8.5 case study).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/miniredis"
	"hpmp/internal/monitor"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, writing its report to out.
func run(out io.Writer) error {
	const memSize = 512 * addr.MiB
	commands := []string{"GET", "SET", "LPUSH", "LRANGE_100", "SADD"}
	const requests = 20

	fmt.Fprintf(out, "%-12s  %12s  %12s  %12s   (simulated RPS, higher is better)\n",
		"command", "Penglai-PMP", "Penglai-PMPT", "Penglai-HPMP")

	results := map[string]map[monitor.Mode]float64{}
	for _, cmd := range commands {
		results[cmd] = map[monitor.Mode]float64{}
	}
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
		p, err := k.Spawn(kernel.Image{Name: "redis-server", TextPages: 64, DataPages: 64, HeapPages: 64 * 1024})
		if err != nil {
			return err
		}
		env, err := k.NewEnv(p)
		if err != nil {
			return err
		}
		srv, err := miniredis.NewServer(env, 32*addr.MiB, 4096)
		if err != nil {
			return err
		}
		b := miniredis.NewBenchmark(srv, env)
		if err := b.Prepare(); err != nil {
			return err
		}
		for _, cmd := range commands {
			rps, err := b.RunCommand(cmd, requests)
			if err != nil {
				return err
			}
			results[cmd][mode] = rps
		}
	}
	for _, cmd := range commands {
		fmt.Fprintf(out, "%-12s  %12.0f  %12.0f  %12.0f\n", cmd,
			results[cmd][monitor.ModePMP],
			results[cmd][monitor.ModePMPT],
			results[cmd][monitor.ModeHPMP])
	}
	fmt.Fprintln(out, "\nExpect: PMPT loses the most RPS on pointer-chasing commands (LRANGE);")
	fmt.Fprintln(out, "HPMP recovers most of the loss (paper Fig. 12-d/e).")
	return nil
}
