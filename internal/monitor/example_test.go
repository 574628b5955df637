package monitor_test

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

// Example walks the enclave lifecycle: boot the monitor in HPMP mode,
// create an enclave, donate memory (revoking the host), switch in, and
// tear down (scrubbing).
func Example() {
	mach := cpu.NewMachine(cpu.RocketPlatform(), 512*addr.MiB, true)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(monitor.ModeHPMP))
	if err != nil {
		panic(err)
	}

	enc, _, err := mon.CreateEnclave()
	if err != nil {
		panic(err)
	}
	region := addr.Range{Base: 0x1000_0000, Size: addr.MiB}
	if _, _, err := mon.AddRegion(enc, region, perm.RWX, monitor.LabelSlow); err != nil {
		panic(err)
	}

	probe := func(who string) {
		r, err := mach.Checker.Check(region.Base, 8, perm.Read, perm.S, mach.Core.Now)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s can read enclave memory: %v\n", who, r.Allowed)
	}
	probe("host")
	if _, err := mon.Switch(enc); err != nil {
		panic(err)
	}
	probe("enclave")

	mach.Mem.Write64(region.Base, 0x5ec7e7) // the enclave's secret
	if _, err := mon.Switch(monitor.HostDomain); err != nil {
		panic(err)
	}
	if _, err := mon.DestroyDomain(enc); err != nil {
		panic(err)
	}
	v, _ := mach.Mem.Read64(region.Base)
	fmt.Printf("after destroy, secret word reads %#x\n", v)
	// Output:
	// host can read enclave memory: false
	// enclave can read enclave memory: true
	// after destroy, secret word reads 0x0
}
