// Attestation example: the full confidential-computing lifecycle on the
// simulated stack — create an enclave, load and measure its image, attest
// it, exchange messages through monitor-mediated IPC, share a buffer
// between enclaves, and scrub the enclave's memory on teardown. (The
// Penglai components of paper Fig. 7 beyond the performance experiments.)
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
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
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(monitor.ModeHPMP))
	if err != nil {
		return err
	}

	// 1. The host creates an enclave and donates memory to it.
	enc, cycles, err := mon.CreateEnclave()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "created enclave %d (%d cycles)\n", enc, cycles)
	region := addr.Range{Base: 0x1000_0000, Size: 1 * addr.MiB}
	if _, _, err := mon.AddRegion(enc, region, perm.RWX, monitor.LabelSlow); err != nil {
		return err
	}

	// 2. Load the enclave "image" and measure it — the attestation anchor.
	image := []byte("keyvault-v1.0: sealed signing service")
	if err := mach.Mem.Write(region.Base, image); err != nil {
		return err
	}
	m1, err := mon.Measure(enc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "measurement: %x...\n", m1[:8])

	// A remote verifier would compare the attested value against the
	// expected build. Tampering is visible:
	if err := mach.Mem.Write8(region.Base, 'K'); err != nil {
		return err
	}
	m2, err := mon.Measure(enc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "after tampering: %x...  (differs: %v)\n", m2[:8], m1 != m2)

	// 3. Host ↔ enclave IPC through the monitor.
	if _, err := mon.SendMessage(enc, []byte("sign: invoice-42")); err != nil {
		return err
	}
	req, _, err := mon.ReceiveMessage(enc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "enclave received request: %q\n", req)

	// 4. Two enclaves share a read-only buffer.
	enc2, _, err := mon.CreateEnclave()
	if err != nil {
		return err
	}
	shared := addr.Range{Base: 0x1800_0000, Size: 64 * addr.KiB}
	gms, _, err := mon.AddRegion(enc, shared, perm.RW, monitor.LabelSlow)
	if err != nil {
		return err
	}
	if _, err := mon.ShareRegion(gms, enc2, perm.R); err != nil {
		return err
	}
	if _, err := mon.Switch(enc2); err != nil {
		return err
	}
	r, err := mach.Checker.Check(shared.Base, 8, perm.Read, perm.S, 0)
	if err != nil {
		return err
	}
	w, err := mach.Checker.Check(shared.Base, 8, perm.Write, perm.S, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "auditor view of shared buffer: read=%v write=%v\n", r.Allowed, w.Allowed)
	if _, err := mon.Switch(monitor.HostDomain); err != nil {
		return err
	}

	// 5. Teardown scrubs the enclave's memory.
	if _, err := mon.DestroyDomain(enc2); err != nil {
		return err
	}
	if _, err := mon.DestroyDomain(enc); err != nil {
		return err
	}
	v, err := mach.Mem.Read64(region.Base)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "after destroy, first word of enclave memory: %#x (scrubbed)\n", v)
	return nil
}
