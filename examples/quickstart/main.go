// Quickstart: boot a simulated RISC-V machine under each physical-memory
// isolation mode, run one user memory access with a cold TLB, and print the
// memory-reference arithmetic that motivates the paper (Fig. 2 and Fig. 4):
//
//	PMP (segments)            4 references
//	PMP Table (2-level)      12 references
//	HPMP (hybrid)             6 references
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, writing its report to out.
func run(out io.Writer) error {
	const memSize = 512 * addr.MiB

	for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP} {
		// 1. Assemble the hardware: Rocket-like core, caches, DRAM, HPMP
		//    checker.
		mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)

		// 2. Boot the Penglai-HPMP secure monitor in the chosen mode. It
		//    locks its own memory, builds the host domain, and programs the
		//    HPMP entries (segments, tables, or both).
		mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
		if err != nil {
			return fmt.Errorf("monitor boot: %w", err)
		}

		// 3. Start the OS kernel. It allocates all page-table pages from
		//    one contiguous pool and registers it as a "fast" GMS — the
		//    paper's ~700-line Linux change.
		k, err := kernel.New(mach, mon, kernel.DefaultConfig(memSize))
		if err != nil {
			return fmt.Errorf("kernel boot: %w", err)
		}

		// 4. Spawn a process and touch one heap page so it is mapped.
		p, err := k.Spawn(kernel.Image{Name: "demo", TextPages: 4, DataPages: 4})
		if err != nil {
			return fmt.Errorf("spawn: %w", err)
		}
		env, err := k.NewEnv(p)
		if err != nil {
			return fmt.Errorf("env: %w", err)
		}
		va := p.Heap()
		env.Store64(va, 0x1234)
		if err := env.Err(); err != nil {
			return fmt.Errorf("store: %w", err)
		}

		// 5. Flush the TLB and measure a single load: the walk now shows
		//    the paper's reference counts.
		mach.MMU.FlushTLB()
		var res mmu.Result
		err = mach.MMU.Access(va, perm.Read, perm.U, mach.Core.Now, &res)
		if err != nil || res.Faulted() {
			return fmt.Errorf("access: %+v %v", res, err)
		}
		fmt.Fprintf(out, "%-5v cold load: %2d memory references "+
			"(PT=%d, PT-checks=%d, data-checks=%d, data=%d), %4d cycles\n",
			mode, res.TotalRefs(),
			res.Walk.PTRefs, res.Walk.PTCheckRefs, res.DataCheckRefs, res.DataRefs,
			res.Latency)

		// A second access hits the TLB with the inlined permission: one
		// reference under every mode.
		if err := mach.MMU.Access(va, perm.Read, perm.U, mach.Core.Now, &res); err != nil {
			return fmt.Errorf("warm access: %w", err)
		}
		fmt.Fprintf(out, "%-5v warm load: %2d memory reference  (TLB %s hit), %4d cycles\n\n",
			mode, res.TotalRefs(), res.TLBHit, res.Latency)
	}
	return nil
}
