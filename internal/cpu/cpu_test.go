package cpu

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/mmu"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pt"
)

// coreLoad/coreStore/coreFetch adapt the out-param Core.Access to the
// value-returning shape the assertions below read naturally.
func coreLoad(c *Core, va addr.VA) (mmu.Result, error)  { return coreAccess(c, va, perm.Read) }
func coreStore(c *Core, va addr.VA) (mmu.Result, error) { return coreAccess(c, va, perm.Write) }
func coreFetch(c *Core, va addr.VA) (mmu.Result, error) { return coreAccess(c, va, perm.Fetch) }

func coreAccess(c *Core, va addr.VA, k perm.Access) (mmu.Result, error) {
	var res mmu.Result
	err := c.Access(va, k, perm.U, &res)
	return res, err
}

// setup builds a machine with a flat identity-ish mapping and a PMP segment
// over everything (the non-secure baseline).
func setup(t *testing.T, plat Platform) (*Machine, addr.VA) {
	t.Helper()
	m := NewMachine(plat, 64*addr.MiB, true)
	if err := m.Checker.SetSegment(0, addr.Range{Base: 0, Size: 64 * addr.MiB}, perm.RWX, false); err != nil {
		t.Fatal(err)
	}
	ptAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x40_0000, Size: 2 * addr.MiB}, false)
	tbl, err := pt.New(m.Mem, ptAlloc, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x1000_0000)
	if err := tbl.Map(va, 0x80_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	m.MMU.SetRoot(tbl.Root())
	return m, va
}

func TestComputeAdvancesByIPC(t *testing.T) {
	m, _ := setup(t, RocketPlatform())
	c := m.Core
	c.Compute(65) // 65 instrs at IPC 0.65 = 100 cycles
	if c.Now != 100 {
		t.Errorf("Now = %d, want 100", c.Now)
	}
	// Fractional carry: 1000 × 1 instr must equal 1 × 1000 instrs.
	c2 := NewCore(Rocket(), m.MMU)
	for i := 0; i < 1000; i++ {
		c2.Compute(1)
	}
	c3 := NewCore(Rocket(), m.MMU)
	c3.Compute(1000)
	if diff := int64(c2.Now) - int64(c3.Now); diff < -1 || diff > 1 {
		t.Errorf("carry drift: %d vs %d", c2.Now, c3.Now)
	}
}

func TestLoadAdvancesTime(t *testing.T) {
	m, va := setup(t, RocketPlatform())
	before := m.Core.Now
	res, err := coreLoad(m.Core, va)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faulted() {
		t.Fatalf("fault: %+v", res)
	}
	if m.Core.Now-before != res.Latency {
		t.Errorf("in-order core must expose full latency: advanced %d, latency %d",
			m.Core.Now-before, res.Latency)
	}
}

func TestBOOMHidesDataLatencyOnly(t *testing.T) {
	mR, vaR := setup(t, RocketPlatform())
	mB, vaB := setup(t, BOOMPlatform())

	// Warm both TLBs and caches.
	coreLoad(mR.Core, vaR)
	coreLoad(mB.Core, vaB)

	// L1-hit loads: BOOM hides them entirely, Rocket pays L1 latency.
	r0 := mR.Core.Now
	coreLoad(mR.Core, vaR)
	rockStall := mR.Core.Now - r0
	b0 := mB.Core.Now
	coreLoad(mB.Core, vaB)
	boomStall := mB.Core.Now - b0
	if boomStall != 0 {
		t.Errorf("BOOM should hide an L1 hit, stalled %d", boomStall)
	}
	if rockStall == 0 {
		t.Error("Rocket must expose the L1 hit")
	}

	// TLB-miss walks are exposed on both.
	mB.MMU.FlushTLB()
	b0 = mB.Core.Now
	res, _ := coreLoad(mB.Core, vaB)
	walkStall := mB.Core.Now - b0
	if res.TLBHit != obs.TLBMiss {
		t.Fatalf("expected a walk, got %s", res.TLBHit)
	}
	translation := res.Latency - res.DataLatency
	if walkStall < translation {
		t.Errorf("translation latency must be fully exposed: stalled %d < translation %d",
			walkStall, translation)
	}
}

func TestStorePath(t *testing.T) {
	m, va := setup(t, BOOMPlatform())
	res, err := coreStore(m.Core, va)
	if err != nil || res.Faulted() {
		t.Fatalf("store: %+v %v", res, err)
	}
	if m.Core.Counters.Get("cpu.mem_ops") != 1 {
		t.Error("mem op not counted")
	}
}

func TestColdReset(t *testing.T) {
	m, va := setup(t, RocketPlatform())
	coreLoad(m.Core, va)
	res, _ := coreLoad(m.Core, va)
	if res.TLBHit != obs.TLBL1 {
		t.Fatal("expected warm TLB")
	}
	m.ColdReset()
	res, _ = coreLoad(m.Core, va)
	if res.TLBHit != obs.TLBMiss {
		t.Errorf("after ColdReset access must walk, got %s", res.TLBHit)
	}
	if res.Walk.PTRefs == 0 {
		t.Error("after ColdReset the walk must fetch PTEs")
	}
}

func TestNoIsolationMachine(t *testing.T) {
	m := NewMachine(RocketPlatform(), 64*addr.MiB, false)
	if m.Checker != nil || m.PMPTWCache != nil {
		t.Fatal("a machine without isolation has no checker and no PMPTW cache")
	}
	ptAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x40_0000, Size: 2 * addr.MiB}, false)
	tbl, err := pt.New(m.Mem, ptAlloc, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x1000_0000)
	if err := tbl.Map(va, 0x80_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	m.MMU.SetRoot(tbl.Root())
	res, err := coreLoad(m.Core, va)
	if err != nil || res.Faulted() {
		t.Fatalf("%+v %v", res, err)
	}
	if res.TotalRefs() != 4 {
		t.Errorf("no-isolation cold access = %d refs, want 4", res.TotalRefs())
	}
	// The walker's three PTE fetches skip the L1D, as on every other
	// machine: only the data line fills it.
	if fills := m.Hier.L1.Counters.Get("l1d.fill"); fills != 1 {
		t.Errorf("cold TLB-miss load filled %d L1D lines, want 1 (the data line)", fills)
	}
}

func TestSecondsConversion(t *testing.T) {
	m, _ := setup(t, BOOMPlatform())
	m.Core.Now = 3_200_000_000 // 1 second at 3.2 GHz
	if s := m.Core.Seconds(); s < 0.999 || s > 1.001 {
		t.Errorf("Seconds = %v, want 1.0", s)
	}
}

func TestDefaultSecureBootPosture(t *testing.T) {
	// A fresh machine denies S-mode before the monitor programs HPMP.
	m := NewMachine(RocketPlatform(), 64*addr.MiB, true)
	ptAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x40_0000, Size: 2 * addr.MiB}, false)
	tbl, _ := pt.New(m.Mem, ptAlloc, addr.Sv39)
	va := addr.VA(0x1000_0000)
	tbl.Map(va, 0x80_0000, perm.RW, true)
	m.MMU.SetRoot(tbl.Root())
	res, err := coreLoad(m.Core, va)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AccessFault {
		t.Errorf("unprogrammed HPMP must deny U-mode: %+v", res)
	}
}

func TestPlatformGeometry(t *testing.T) {
	r := RocketPlatform()
	b := BOOMPlatform()
	// The capacity-scaling methodology (DESIGN.md): BOOM has bigger L1s,
	// both share the scaled L2/LLC, and BOOM's clock is 3.2×.
	if r.Core.ClockGHz != 1.0 || b.Core.ClockGHz != 3.2 {
		t.Errorf("clocks: %v %v", r.Core.ClockGHz, b.Core.ClockGHz)
	}
	if b.L1D.Size <= r.L1D.Size {
		t.Error("BOOM L1D must be larger than Rocket's")
	}
	if r.L2.Size != b.L2.Size || r.LLC.Size != b.LLC.Size {
		t.Error("shared-level sizes must match across platforms")
	}
	if b.Core.HideCycles == 0 || r.Core.HideCycles != 0 {
		t.Error("only the OoO core hides data latency")
	}
	if b.Core.MemClockRatio != b.Core.ClockGHz {
		t.Error("memory clock ratio must match the core clock (1 GHz controller)")
	}
	// Cache geometries must validate.
	for _, plat := range []Platform{r, b} {
		for _, c := range []struct {
			name string
			v    interface{ Validate() error }
		}{{"l1d", plat.L1D}, {"l2", plat.L2}, {"llc", plat.LLC}} {
			if err := c.v.Validate(); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
	}
}

func TestFetchPath(t *testing.T) {
	m, _ := setup(t, RocketPlatform())
	ptAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x60_0000, Size: 2 * addr.MiB}, false)
	tbl, err := pt.New(m.Mem, ptAlloc, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	code := addr.VA(0x40_0000)
	if err := tbl.Map(code, 0x90_0000, perm.RX, true); err != nil {
		t.Fatal(err)
	}
	m.MMU.SetRoot(tbl.Root())
	m.MMU.FlushTLB()
	res, err := coreFetch(m.Core, code)
	if err != nil || res.Faulted() {
		t.Fatalf("fetch: %+v %v", res, err)
	}
	// Fetches use the ITLB: a repeat hits it.
	res, _ = coreFetch(m.Core, code)
	if res.TLBHit != obs.TLBL1 {
		t.Errorf("second fetch should hit the ITLB, got %s", res.TLBHit)
	}
	// Fetching a non-executable page prot-faults.
	data := addr.VA(0x41_0000)
	tbl.Map(data, 0x91_0000, perm.RW, true)
	res, _ = coreFetch(m.Core, data)
	if !res.ProtFault {
		t.Errorf("fetch from rw- page must prot-fault: %+v", res)
	}
}

func TestEPMPMachine(t *testing.T) {
	plat := RocketPlatform()
	plat.PMPEntries = 64
	m := NewMachine(plat, 64*addr.MiB, true)
	if m.Checker.PMP.NumEntries() != 64 {
		t.Errorf("bank size = %d, want 64", m.Checker.PMP.NumEntries())
	}
	// Entry 63 is usable as a segment, 62 as a table head.
	if err := m.Checker.SetSegment(63, addr.Range{Base: 0, Size: 64 * addr.MiB}, perm.RWX, false); err != nil {
		t.Fatal(err)
	}
	r, err := m.Checker.Check(0x1000, 8, perm.Read, perm.S, 0)
	if err != nil || !r.Allowed || r.Entry != 63 {
		t.Errorf("high-entry check: %+v %v", r, err)
	}
}
