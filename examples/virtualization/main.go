// Virtualization example: a guest performs hlv.d-style accesses through a
// 3-D page walk (guest PT → nested PT → permission table) under four
// isolation methods, printing the reference counts and latencies of paper
// §6 / Fig. 13 — including the HPMP-GPT extension where the guest notifies
// the hypervisor so guest-PT host frames land in a contiguous segment.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
	"hpmp/internal/virt"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, writing its report to out.
func run(out io.Writer) error {
	const memSize = 512 * addr.MiB

	type method struct {
		name     string
		segments []addr.Range // regions mirrored into segment entries
		useTable bool
	}
	nptRegion := addr.Range{Base: 0x0100_0000, Size: 4 * addr.MiB}
	gptRegion := addr.Range{Base: 0x0180_0000, Size: 4 * addr.MiB}
	methods := []method{
		{"PMP", nil, false},
		{"PMPT", nil, true},
		{"HPMP", []addr.Range{nptRegion}, true},
		{"HPMP-GPT", []addr.Range{nptRegion, gptRegion}, true},
	}

	fmt.Fprintf(out, "%-9s  %5s  %5s  %5s  %5s  %7s\n",
		"method", "NPT", "gPT", "check", "total", "cycles")
	for _, m := range methods {
		mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
		nptAlloc := phys.NewFrameAllocator(nptRegion, false)
		dataAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x0800_0000, Size: 64 * addr.MiB}, false)
		tblAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x0400_0000, Size: 16 * addr.MiB}, false)
		gptAlloc := dataAlloc
		if m.name == "HPMP-GPT" {
			gptAlloc = phys.NewFrameAllocator(gptRegion, false)
		}

		npt, err := pt.New(mach.Mem, nptAlloc, addr.Sv39x4)
		if err != nil {
			return err
		}
		guest, err := virt.NewGuestTable(mach.Mem, npt, 0x4000_0000, 64, gptAlloc)
		if err != nil {
			return err
		}

		all := addr.Range{Base: 0, Size: memSize}
		entry := 0
		for _, seg := range m.segments {
			if err := mach.Checker.SetSegment(entry, seg, perm.RW, false); err != nil {
				return err
			}
			entry++
		}
		if m.useTable {
			tbl, err := pmpt.NewTable(mach.Mem, tblAlloc, all)
			if err != nil {
				return err
			}
			if err := tbl.SetRangePermPaged(all, perm.RWX); err != nil {
				return err
			}
			if err := mach.Checker.SetTable(entry, all, tbl.RootBase()); err != nil {
				return err
			}
		} else {
			if err := mach.Checker.SetSegment(entry, all, perm.RWX, false); err != nil {
				return err
			}
		}

		hyp := virt.NewHypervisor(mach, mach.Checker, npt, guest)
		hyp.DisableWalkCaches() // show raw ISA reference counts

		gva, gpa := addr.VA(0x1000_0000), addr.GPA(0x8000_0000)
		dataPA, err := dataAlloc.Alloc()
		if err != nil {
			return err
		}
		if err := npt.Map(addr.VA(gpa), dataPA, perm.RW, true); err != nil {
			return err
		}
		if err := guest.Map(gva, addr.PA(gpa), perm.RW, true); err != nil {
			return err
		}

		res, err := hyp.AccessGuest(gva, perm.Read, 0)
		if err != nil || res.PageFault || res.AccessFault {
			return fmt.Errorf("%s: %+v %v", m.name, res, err)
		}
		fmt.Fprintf(out, "%-9s  %5d  %5d  %5d  %5d  %7d\n",
			m.name, res.NPTRefs, res.GPTRefs, res.CheckRefs, res.TotalRefs(), res.Latency)
	}
	fmt.Fprintln(out, "\nPaper §6: 16 base references; the permission table adds 32,")
	fmt.Fprintln(out, "HPMP removes the 24 NPT checks, HPMP-GPT also the 6 guest-PT checks.")
	return nil
}
