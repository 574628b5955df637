package mmu

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cache"
	"hpmp/internal/dram"
	"hpmp/internal/hpmp"
	"hpmp/internal/memport"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmp"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
)

// TestFlushVADoesNotScopePMPTWalkerCache pins the fence-scoping decision
// documented on FlushVA: sfence.vma (including the per-VA form) orders only
// the VA-translation structures. The PA-keyed pmpte walker cache belongs to
// the physical-isolation dimension and has its own fence — a FlushAll of the
// walker cache, which the monitor issues with a full TLB flush on every
// table edit. The test shows both halves: after a pmpte downgrade, FlushVA
// alone still serves the stale (cached) physical permission, and the
// monitor's fence pair makes the downgrade visible.
func TestFlushVADoesNotScopePMPTWalkerCache(t *testing.T) {
	mem := phys.New(memSize)
	hier := cache.NewHierarchy(
		cache.New(cache.Config{Name: "l1d", Size: 32 * addr.KiB, Ways: 8, Latency: 2}),
		cache.New(cache.Config{Name: "l2", Size: 512 * addr.KiB, Ways: 8, Latency: 12}),
		cache.New(cache.Config{Name: "llc", Size: 4 * addr.MiB, Ways: 8, Latency: 26}),
		dram.New(), 1.0)
	port := &memport.Timed{Hier: hier, Mem: mem}

	ptRegion := addr.Range{Base: 0x40_0000, Size: 4 * addr.MiB}
	ptAlloc := phys.NewFrameAllocator(ptRegion, false)
	tbl, err := pt.New(mem, ptAlloc, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	monAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x100_0000, Size: 8 * addr.MiB}, false)

	all := addr.Range{Base: 0, Size: memSize}
	ptab, err := pmpt.NewTable(mem, monAlloc, all)
	if err != nil {
		t.Fatal(err)
	}
	if err := ptab.SetRangePermPaged(all, perm.RWX); err != nil {
		t.Fatal(err)
	}
	wcache := pmpt.NewWalkerCache(16)
	checker := hpmp.NewSized(pmpt.NewWalker(port, wcache), pmp.NumEntries)
	if err := checker.SetTable(0, all, ptab.RootBase()); err != nil {
		t.Fatal(err)
	}

	m := New(DefaultConfig(addr.Sv39), hier, checker, port)
	m.SetRoot(tbl.Root())

	va := addr.VA(0x4000_0000)
	pa := addr.PA(0x800_0000)
	if err := tbl.Map(va, pa, perm.RW, true); err != nil {
		t.Fatal(err)
	}

	var res Result
	if err := m.Access(va, perm.Write, perm.U, 0, &res); err != nil {
		t.Fatal(err)
	}
	if res.Faulted() {
		t.Fatalf("initial write must be allowed: %+v", res)
	}

	// Monitor-side downgrade of the page's pmpte to read-only, followed by
	// only a per-VA shootdown — NOT the monitor's mandated fence pair.
	if err := ptab.SetRangePermPaged(addr.Range{Base: pa, Size: addr.PageSize}, perm.R); err != nil {
		t.Fatal(err)
	}
	m.FlushVA(va)

	if err := m.Access(va, perm.Write, perm.U, 0, &res); err != nil {
		t.Fatal(err)
	}
	if res.Faulted() {
		t.Fatalf("FlushVA must not scope the pmpte walker cache: the stale RWX pmpte is still legal to serve, got %+v", res)
	}

	// The correct fence, as monitor.flushAfterUpdate issues it: a full TLB
	// flush and a FlushAll of the walker cache. Now the downgrade must be
	// visible.
	m.FlushTLB()
	wcache.FlushAll()
	if err := m.Access(va, perm.Write, perm.U, 0, &res); err != nil {
		t.Fatal(err)
	}
	if !res.AccessFault {
		t.Fatalf("write after the proper fence pair must be denied by the downgraded pmpte, got %+v", res)
	}
	if err := m.Access(va, perm.Read, perm.U, 0, &res); err != nil {
		t.Fatal(err)
	}
	if res.Faulted() {
		t.Fatalf("read must stay allowed after downgrade to R: %+v", res)
	}
}
