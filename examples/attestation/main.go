// Attestation example: the full confidential-computing lifecycle on the
// simulated stack — create an enclave, load and measure its image, attest
// it, exchange messages through monitor-mediated IPC, share a buffer
// between enclaves, and protect swapped-out memory with the mountable
// Merkle tree. (The Penglai components of paper Fig. 7 beyond the
// performance experiments.)
package main

import (
	"fmt"
	"log"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/merkle"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

func main() {
	const memSize = 512 * addr.MiB
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(monitor.ModeHPMP))
	if err != nil {
		log.Fatal(err)
	}

	// 1. The host creates an enclave and donates memory to it.
	enc, cycles, err := mon.CreateEnclave("keyvault")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created enclave %d (%d cycles)\n", enc, cycles)
	region := addr.Range{Base: 0x1000_0000, Size: 1 * addr.MiB}
	if _, _, err := mon.AddRegion(enc, region, perm.RWX, monitor.LabelSlow); err != nil {
		log.Fatal(err)
	}

	// 2. Load the enclave "image" and measure it — the attestation anchor.
	image := []byte("keyvault-v1.0: sealed signing service")
	if err := mach.Mem.Write(region.Base, image); err != nil {
		log.Fatal(err)
	}
	m1, err := mon.Measure(enc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measurement: %x...\n", m1[:8])

	// A remote verifier would compare the attested value against the
	// expected build. Tampering is visible:
	mach.Mem.Write8(region.Base, 'K')
	m2, _ := mon.Measure(enc)
	fmt.Printf("after tampering: %x...  (differs: %v)\n", m2[:8], m1 != m2)

	// 3. Host ↔ enclave IPC through the monitor.
	if _, err := mon.SendMessage(enc, []byte("sign: invoice-42")); err != nil {
		log.Fatal(err)
	}
	req, _, err := mon.ReceiveMessage(enc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("enclave received request: %q\n", req)

	// 4. Two enclaves share a read-only buffer.
	enc2, _, _ := mon.CreateEnclave("auditor")
	shared := addr.Range{Base: 0x1800_0000, Size: 64 * addr.KiB}
	gms, _, err := mon.AddRegion(enc, shared, perm.RW, monitor.LabelSlow)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := mon.ShareRegion(gms, enc2, perm.R); err != nil {
		log.Fatal(err)
	}
	mon.Switch(enc2)
	r, _ := mach.Checker.Check(shared.Base, 8, perm.Read, perm.S, 0)
	w, _ := mach.Checker.Check(shared.Base, 8, perm.Write, perm.S, 0)
	fmt.Printf("auditor view of shared buffer: read=%v write=%v\n", r.Allowed, w.Allowed)
	mon.Switch(monitor.HostDomain)

	// 5. Swap protection: the monitor hashes pages into a Merkle tree
	//    before handing them to host storage; tampering is caught on
	//    swap-in.
	tree, err := merkle.New(256, 16)
	if err != nil {
		log.Fatal(err)
	}
	page := make([]byte, merkle.BlockSize)
	mach.Mem.Read(region.Base, page)
	tree.Update(0, page)
	saved := tree.LeafDigests(0)
	tree.Unmount(0) // page "leaves" protected memory

	mach.Mem.Write64(region.Base+16, 0xbadbadbad) // host tampers
	tree.Mount(0, saved)
	tampered := make([]byte, merkle.BlockSize)
	mach.Mem.Read(region.Base, tampered)
	ok, _ := tree.Verify(0, tampered)
	fmt.Printf("swap-in verification of tampered page: passed=%v (must be false)\n", ok)

	// 6. Teardown scrubs the enclave's memory.
	if _, err := mon.DestroyDomain(enc2); err != nil {
		log.Fatal(err)
	}
	if _, err := mon.DestroyDomain(enc); err != nil {
		log.Fatal(err)
	}
	v, _ := mach.Mem.Read64(region.Base)
	fmt.Printf("after destroy, first word of enclave memory: %#x (scrubbed)\n", v)
}
