package hpmp_test

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/hpmp"
	"hpmp/internal/memport"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmp"
	"hpmp/internal/pmpt"
)

// Example shows the hybrid in one screen: entry 0 is a segment protecting
// the (contiguous) page-table pool for free, entry 1+2 a permission table
// covering all memory at page granularity.
func Example() {
	mem := phys.New(256 * addr.MiB)
	tablePages := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 8 * addr.MiB}, false)

	// The monitor builds one permission table over all of DRAM and grants
	// a data page.
	all := addr.Range{Base: 0, Size: 256 * addr.MiB}
	table, err := pmpt.NewTable(mem, tablePages, all)
	if err != nil {
		panic(err)
	}
	dataPage := addr.PA(0x800_0000)
	if err := table.SetPagePerm(dataPage, perm.RW); err != nil {
		panic(err)
	}

	chk := hpmp.NewSized(pmpt.NewWalker(&memport.Flat{Mem: mem, Latency: 10}, nil), pmp.NumEntries)
	ptPool := addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}
	chk.SetSegment(0, ptPool, perm.RW, false) // fast: zero memory references
	chk.SetTable(1, all, table.RootBase())    // fine-grained: 2 refs per check

	for _, probe := range []struct {
		name string
		pa   addr.PA
	}{
		{"PT page (segment)", ptPool.Base},
		{"data page (table)", dataPage},
		{"unset page (table)", dataPage + addr.PageSize},
	} {
		r, err := chk.Check(probe.pa, 8, perm.Read, perm.S, 0)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-20s allowed=%-5v refs=%d\n", probe.name, r.Allowed, r.MemRefs)
	}
	// Output:
	// PT page (segment)    allowed=true  refs=0
	// data page (table)    allowed=true  refs=2
	// unset page (table)   allowed=false refs=2
}
