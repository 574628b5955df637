package monitor

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/perm"
)

func TestBootValidation(t *testing.T) {
	// A machine without a checker (no-isolation build) cannot host a
	// monitor.
	bare := cpu.NewMachine(cpu.RocketPlatform(), memSize, false)
	if _, err := Boot(bare, DefaultConfig(ModeHPMP)); err == nil {
		t.Error("machine without HPMP checker must be rejected")
	}
}

func TestFastSlotExhaustion(t *testing.T) {
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	mon, err := Boot(mach, DefaultConfig(ModeHPMP))
	if err != nil {
		t.Fatal(err)
	}
	// Fill every fast slot, then label two more GMSs fast.
	fast := mon.fastCount
	var ids []GMSID
	for i := 0; i < fast+2; i++ {
		region := addr.Range{Base: addr.PA(0x1000_0000 + i*4*addr.MiB), Size: 4 * addr.MiB}
		id, _, err := mon.AddRegion(HostDomain, region, perm.RW, LabelFast)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The first fast GMSs ride segments; the overflow ones stay table-only
	// (a cache miss that does not evict, §5) — and still enforce access.
	segCount := 0
	for i, id := range ids {
		g := mon.gmss[id]
		r, err := mach.Checker.Check(g.Region.Base, 8, perm.Read, perm.S, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Allowed {
			t.Fatalf("GMS %d must be accessible", i)
		}
		if !r.TableMode {
			segCount++
		}
	}
	if segCount != fast {
		t.Errorf("%d GMSs in segments, want exactly %d (the fast slots)", segCount, fast)
	}
	// Releasing a fast GMS frees its slot for the next fast label.
	if _, err := mon.ReleaseRegion(ids[0]); err != nil {
		t.Fatal(err)
	}
	overflow := ids[fast]
	if _, err := mon.SetLabel(overflow, LabelSlow); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.SetLabel(overflow, LabelFast); err != nil {
		t.Fatal(err)
	}
	g := mon.gmss[overflow]
	r, _ := mach.Checker.Check(g.Region.Base, 8, perm.Read, perm.S, 0)
	if r.TableMode {
		t.Error("relabelled GMS should claim the freed fast slot")
	}
}

func TestNonNAPOTFastGMSStaysInTable(t *testing.T) {
	mon := boot(t, ModeHPMP)
	// 3 pages: cannot be a NAPOT segment, so the fast label is a no-op for
	// segments (the GMS still works through the table).
	region := addr.Range{Base: 0x1000_0000, Size: 3 * addr.PageSize}
	id, _, err := mon.AddRegion(HostDomain, region, perm.RW, LabelFast)
	if err != nil {
		t.Fatal(err)
	}
	g := mon.gmss[id]
	r, _ := mon.Mach.Checker.Check(g.Region.Base, 8, perm.Read, perm.S, 0)
	if !r.Allowed || !r.TableMode {
		t.Errorf("non-NAPOT fast GMS must be table-checked but accessible: %+v", r)
	}
}

func TestMultiChunkMemory(t *testing.T) {
	// 32 GiB of (sparse) memory needs two 16 GiB permission-table chunks:
	// two entry pairs, leaving fewer fast slots.
	mach := cpu.NewMachine(cpu.RocketPlatform(), 32*addr.GiB, true)
	mon, err := Boot(mach, DefaultConfig(ModeHPMP))
	if err != nil {
		t.Fatal(err)
	}
	// Far memory (beyond 16 GiB) is host-accessible through the second
	// chunk's table.
	far := addr.PA(20 * addr.GiB)
	r, err := mach.Checker.Check(far, 8, perm.Read, perm.S, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Allowed || !r.TableMode {
		t.Errorf("far memory must be table-checked host memory: %+v", r)
	}
	// An enclave can own far memory too.
	enc, _, _ := mon.CreateEnclave()
	region := addr.Range{Base: addr.PA(24 * addr.GiB), Size: 8 * addr.MiB}
	if _, _, err := mon.AddRegion(enc, region, perm.RWX, LabelSlow); err != nil {
		t.Fatal(err)
	}
	if hostCheck(t, mon, region.Base, perm.Read) {
		t.Error("host must lose far enclave memory")
	}
	mon.Switch(enc)
	if !hostCheck(t, mon, region.Base, perm.Read) {
		t.Error("enclave must reach its far memory")
	}
}

func TestPMPTSwitchCostFlat(t *testing.T) {
	// Table-mode switching (PMPT and HPMP) is a root-pointer swap: cost
	// must not grow with the enclaves' region counts.
	mon := boot(t, ModePMPT)
	e1, _, _ := mon.CreateEnclave()
	mon.AddRegion(e1, addr.Range{Base: 0x1000_0000, Size: 64 * addr.KiB}, perm.RWX, LabelSlow)
	e2, _, _ := mon.CreateEnclave()
	for i := 0; i < 20; i++ {
		region := addr.Range{Base: addr.PA(0x1100_0000 + i*addr.MiB), Size: 64 * addr.KiB}
		if _, _, err := mon.AddRegion(e2, region, perm.RWX, LabelSlow); err != nil {
			t.Fatal(err)
		}
	}
	mon.Switch(e1)
	c1, _ := mon.Switch(e2)
	c2, _ := mon.Switch(e1)
	if c1 > c2*3 || c2 > c1*3 {
		t.Errorf("switch costs should be size-independent: to-big=%d to-small=%d", c1, c2)
	}
}

func TestGMSAccessors(t *testing.T) {
	mon := boot(t, ModeHPMP)
	// Switch to an unknown domain fails.
	if _, err := mon.Switch(42); err == nil {
		t.Error("switch to unknown domain must fail")
	}
	// Label of an unknown GMS fails; same-label is a free no-op.
	if _, err := mon.SetLabel(999, LabelFast); err == nil {
		t.Error("label of unknown GMS must fail")
	}
	region := addr.Range{Base: 0x1000_0000, Size: 64 * addr.KiB}
	id, _, _ := mon.AddRegion(HostDomain, region, perm.RW, LabelSlow)
	cycles, err := mon.SetLabel(id, LabelSlow)
	if err != nil || cycles != 0 {
		t.Errorf("same-label relabel should be free: %d %v", cycles, err)
	}
}

func TestManyEnclavesStress(t *testing.T) {
	if testing.Short() {
		t.Skip("creates 60 enclaves")
	}
	mon := boot(t, ModeHPMP)
	var ids []DomainID
	for i := 0; i < 60; i++ {
		id, _, err := mon.CreateEnclave()
		if err != nil {
			t.Fatal(err)
		}
		region := addr.Range{Base: addr.PA(0x1000_0000 + i*addr.MiB), Size: 256 * addr.KiB}
		if _, _, err := mon.AddRegion(id, region, perm.RWX, LabelSlow); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Round-robin switches keep isolation intact.
	for i, id := range ids {
		if _, err := mon.Switch(id); err != nil {
			t.Fatal(err)
		}
		own := addr.PA(0x1000_0000 + i*addr.MiB)
		other := addr.PA(0x1000_0000 + ((i+1)%60)*addr.MiB)
		if !hostCheck(t, mon, own, perm.Read) {
			t.Fatalf("enclave %d cannot reach its own memory", i)
		}
		if hostCheck(t, mon, other, perm.Read) {
			t.Fatalf("enclave %d can reach enclave %d's memory", i, (i+1)%60)
		}
	}
	// Tear every other one down; the survivors stay isolated.
	mon.Switch(HostDomain)
	for i := 0; i < 60; i += 2 {
		if _, err := mon.DestroyDomain(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if mon.NumDomains() != 31 { // host + 30 survivors
		t.Errorf("NumDomains = %d, want 31", mon.NumDomains())
	}
	mon.Switch(ids[1])
	if hostCheck(t, mon, addr.PA(0x1000_0000+3*addr.MiB), perm.Read) {
		t.Error("survivor can reach another survivor's memory")
	}
}

// TestScrubLeavesUntouchedFramesUnallocated: ReleaseRegion scrubs the
// region, but an untouched frame already reads as zero, so scrubbing an
// untouched 32 MiB enclave region materializes no frame, while a frame
// that held data reads back as zero.
func TestScrubLeavesUntouchedFramesUnallocated(t *testing.T) {
	for _, mode := range []Mode{ModePMP, ModePMPT, ModeHPMP} {
		mon := boot(t, mode)
		mem := mon.Mach.Mem
		enc, _, err := mon.CreateEnclave()
		if err != nil {
			t.Fatal(err)
		}
		region := addr.Range{Base: 0x1000_0000, Size: 32 * addr.MiB}
		id, _, err := mon.AddRegion(enc, region, perm.RWX, LabelSlow)
		if err != nil {
			t.Fatal(err)
		}
		dirty := region.Base + 5*addr.PageSize + 0x40
		if err := mem.Write64(dirty, 0xdead_beef); err != nil {
			t.Fatal(err)
		}
		before := mem.TouchedFrames()
		if _, err := mon.ReleaseRegion(id); err != nil {
			t.Fatal(err)
		}
		if got := mem.TouchedFrames() - before; got != 0 {
			t.Errorf("%v: scrubbing an untouched 32 MiB region materialized %d frames, want 0", mode, got)
		}
		if v, err := mem.Read64(dirty); err != nil || v != 0 {
			t.Errorf("%v: scrubbed frame reads %#x (err %v), want 0", mode, v, err)
		}
	}
}
