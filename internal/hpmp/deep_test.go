package hpmp

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/memport"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
)

// TestDeepTableEntry exercises the §4.3 Mode extension through the
// checker: one HPMP entry pair protecting 32 GiB with a 3-level table —
// impossible for Mode2Level (16 GiB reach).
func TestDeepTableEntry(t *testing.T) {
	mem := phys.New(64 * addr.GiB) // sparse: only touched frames exist
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 64 * addr.MiB}, false)
	region := addr.Range{Base: 0, Size: 32 * addr.GiB}

	tbl, err := pmpt.NewTableMode(mem, alloc, region, pmpt.Mode3Level)
	if err != nil {
		t.Fatal(err)
	}
	far := addr.PA(31 * addr.GiB)
	if err := tbl.SetPagePerm(far, perm.RW); err != nil {
		t.Fatal(err)
	}

	chk := New(&pmpt.Walker{Port: &memport.Flat{Mem: mem, Latency: 10}})
	// Mode2Level must reject the oversized region...
	if err := chk.SetTable(0, region, tbl.RootBase()); err == nil {
		t.Fatal("32 GiB region must exceed the 2-level reach")
	}
	// ...Mode3Level accepts it.
	if err := chk.SetTableMode(0, region, tbl.RootBase(), pmpt.Mode3Level); err != nil {
		t.Fatal(err)
	}
	r, err := chk.Check(far, 8, perm.Write, perm.S, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Allowed || r.MemRefs != 3 {
		t.Errorf("3-level check: %+v (want allowed, 3 refs)", r)
	}
	// Unset pages anywhere in the 32 GiB deny.
	r, _ = chk.Check(addr.PA(5*addr.GiB), 8, perm.Read, perm.S, 0)
	if r.Allowed {
		t.Error("unset page must deny")
	}
	// Reserved modes are rejected at programming time.
	if err := chk.SetTableMode(2, region, tbl.RootBase(), pmpt.TableMode(3)); err == nil {
		t.Error("reserved mode must be rejected")
	}
}
