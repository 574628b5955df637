package monitor

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/mmu"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pt"
)

const memSize = 512 * addr.MiB

func boot(t *testing.T, mode Mode) *Monitor {
	t.Helper()
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	mon, err := Boot(mach, DefaultConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// hostCheck performs an S-mode permission probe at pa.
func hostCheck(t *testing.T, mon *Monitor, pa addr.PA, k perm.Access) bool {
	t.Helper()
	r, err := mon.Mach.Checker.Check(pa, 8, k, perm.S, mon.Mach.Core.Now)
	if err != nil {
		t.Fatal(err)
	}
	return r.Allowed
}

func TestBootPostures(t *testing.T) {
	for _, mode := range []Mode{ModePMP, ModePMPT, ModeHPMP} {
		mon := boot(t, mode)
		// Monitor memory is off-limits to S/U in every mode.
		if hostCheck(t, mon, monitorRegion.Base+0x1000, perm.Read) {
			t.Errorf("%v: host can read monitor memory", mode)
		}
		// Ordinary memory is host-accessible after boot.
		if !hostCheck(t, mon, 0x800_0000, perm.Read) {
			t.Errorf("%v: host cannot read its own memory", mode)
		}
		if mon.Current() != HostDomain || mon.NumDomains() != 1 {
			t.Errorf("%v: boot state wrong", mode)
		}
	}
}

func TestEnclaveIsolation(t *testing.T) {
	for _, mode := range []Mode{ModePMPT, ModeHPMP} {
		mon := boot(t, mode)
		enc, _, err := mon.CreateEnclave()
		if err != nil {
			t.Fatal(err)
		}
		region := addr.Range{Base: 0x1000_0000, Size: 8 * addr.MiB}
		if _, _, err := mon.AddRegion(enc, region, perm.RWX, LabelSlow); err != nil {
			t.Fatal(err)
		}
		// Host (current) must now be locked out of the enclave's memory.
		if hostCheck(t, mon, region.Base, perm.Read) {
			t.Errorf("%v: host can read enclave memory", mode)
		}
		// Switch to the enclave: it can access its own memory...
		if _, err := mon.Switch(enc); err != nil {
			t.Fatal(err)
		}
		if !hostCheck(t, mon, region.Base, perm.Read) {
			t.Errorf("%v: enclave cannot read its own memory", mode)
		}
		// ...but not host memory.
		if hostCheck(t, mon, 0x800_0000, perm.Read) {
			t.Errorf("%v: enclave can read host memory", mode)
		}
		// Switch back restores the host view.
		if _, err := mon.Switch(HostDomain); err != nil {
			t.Fatal(err)
		}
		if !hostCheck(t, mon, 0x800_0000, perm.Read) {
			t.Errorf("%v: host lost its memory after switch round-trip", mode)
		}
		if hostCheck(t, mon, region.Base, perm.Read) {
			t.Errorf("%v: host regained enclave memory", mode)
		}
	}
}

func TestPMPModeEntryExhaustion(t *testing.T) {
	mon := boot(t, ModePMP)
	// Entry 0 = monitor, entry 1 = host segment → 14 free entries.
	var granted int
	for i := 0; ; i++ {
		region := addr.Range{Base: addr.PA(0x1000_0000 + i*addr.MiB), Size: 64 * addr.KiB}
		_, _, err := mon.AddRegion(HostDomain, region, perm.RW, LabelSlow)
		if err != nil {
			break
		}
		granted++
		if granted > 20 {
			t.Fatal("PMP mode must run out of entries")
		}
	}
	if granted != 14 {
		t.Errorf("PMP mode granted %d regions, want 14 (16 entries - monitor - host)", granted)
	}
	// HPMP mode keeps going far past that (Fig. 14-b).
	mon2 := boot(t, ModeHPMP)
	for i := 0; i < 100; i++ {
		region := addr.Range{Base: addr.PA(0x1000_0000 + i*addr.MiB), Size: 64 * addr.KiB}
		if _, _, err := mon2.AddRegion(HostDomain, region, perm.RW, LabelSlow); err != nil {
			t.Fatalf("HPMP region %d: %v", i, err)
		}
	}
}

func TestFastGMSUsesSegment(t *testing.T) {
	mon := boot(t, ModeHPMP)
	// A fast-labelled NAPOT GMS for the host must be mirrored into a
	// segment entry so checks cost zero memory references.
	region := addr.Range{Base: 0x1000_0000, Size: 4 * addr.MiB}
	id, _, err := mon.AddRegion(HostDomain, region, perm.RW, LabelFast)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mon.Mach.Checker.Check(region.Base, 8, perm.Read, perm.S, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Allowed || r.TableMode || r.MemRefs != 0 {
		t.Errorf("fast GMS must be checked by segment: %+v", r)
	}
	// Relabel slow: the same check now walks the table.
	if _, err := mon.SetLabel(id, LabelSlow); err != nil {
		t.Fatal(err)
	}
	r, _ = mon.Mach.Checker.Check(region.Base, 8, perm.Read, perm.S, 0)
	if !r.Allowed || !r.TableMode || r.MemRefs == 0 {
		t.Errorf("slow GMS must be checked by table: %+v", r)
	}
	// And fast again (cache-like: pure register operation).
	if _, err := mon.SetLabel(id, LabelFast); err != nil {
		t.Fatal(err)
	}
	r, _ = mon.Mach.Checker.Check(region.Base, 8, perm.Read, perm.S, 0)
	if r.TableMode {
		t.Errorf("re-fast GMS must be back in a segment: %+v", r)
	}
}

func TestSwitchCostFlatInDomainCount(t *testing.T) {
	// Fig. 14-a: Penglai-HPMP switch cost stays stable as domains grow.
	costs := map[int]uint64{}
	for _, n := range []int{2, 12, 101} {
		mon := boot(t, ModeHPMP)
		ids := []DomainID{HostDomain}
		for i := 1; i < n; i++ {
			id, _, err := mon.CreateEnclave()
			if err != nil {
				t.Fatal(err)
			}
			region := addr.Range{Base: addr.PA(0x1000_0000 + i*addr.MiB), Size: 64 * addr.KiB}
			if _, _, err := mon.AddRegion(id, region, perm.RWX, LabelSlow); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		c1, err := mon.Switch(ids[1])
		if err != nil {
			t.Fatal(err)
		}
		c2, err := mon.Switch(ids[len(ids)-1])
		if err != nil {
			t.Fatal(err)
		}
		costs[n] = (c1 + c2) / 2
	}
	if costs[101] > costs[2]*2 {
		t.Errorf("switch cost must stay near-flat: 2 domains %d cycles, 101 domains %d",
			costs[2], costs[101])
	}
}

func TestReleaseRegionScrubsAndRestores(t *testing.T) {
	mon := boot(t, ModeHPMP)
	enc, _, _ := mon.CreateEnclave()
	region := addr.Range{Base: 0x1000_0000, Size: 128 * addr.KiB}
	id, _, err := mon.AddRegion(enc, region, perm.RWX, LabelSlow)
	if err != nil {
		t.Fatal(err)
	}
	// Enclave writes a secret.
	mon.Mach.Mem.Write64(region.Base, 0xdeadbeef)
	if _, err := mon.ReleaseRegion(id); err != nil {
		t.Fatal(err)
	}
	// Scrubbed...
	if v, _ := mon.Mach.Mem.Read64(region.Base); v != 0 {
		t.Error("released memory must be scrubbed")
	}
	// ...and back in the host's view.
	if !hostCheck(t, mon, region.Base, perm.Read) {
		t.Error("host must regain released memory")
	}
}

func TestOverlapRejected(t *testing.T) {
	mon := boot(t, ModeHPMP)
	e1, _, _ := mon.CreateEnclave()
	e2, _, _ := mon.CreateEnclave()
	r1 := addr.Range{Base: 0x1000_0000, Size: addr.MiB}
	if _, _, err := mon.AddRegion(e1, r1, perm.RWX, LabelSlow); err != nil {
		t.Fatal(err)
	}
	overlap := addr.Range{Base: 0x1008_0000, Size: addr.MiB}
	if _, _, err := mon.AddRegion(e2, overlap, perm.RWX, LabelSlow); err == nil {
		t.Error("overlapping enclave regions must be rejected")
	}
	// Monitor region and out-of-DRAM are rejected too.
	if _, _, err := mon.AddRegion(e2, addr.Range{Base: 0x10_0000, Size: addr.MiB}, perm.R, LabelSlow); err == nil {
		t.Error("monitor overlap must be rejected")
	}
	if _, _, err := mon.AddRegion(e2, addr.Range{Base: memSize, Size: addr.MiB}, perm.R, LabelSlow); err == nil {
		t.Error("beyond-DRAM region must be rejected")
	}
	if _, _, err := mon.AddRegion(e2, addr.Range{Base: 0x2000_0100, Size: addr.MiB}, perm.R, LabelSlow); err == nil {
		t.Error("unaligned region must be rejected")
	}
}

func TestSharing(t *testing.T) {
	mon := boot(t, ModeHPMP)
	e1, _, _ := mon.CreateEnclave()
	e2, _, _ := mon.CreateEnclave()
	region := addr.Range{Base: 0x1800_0000, Size: addr.MiB}
	id, _, err := mon.AddRegion(e1, region, perm.RW, LabelSlow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.ShareRegion(id, e2, perm.R); err != nil {
		t.Fatal(err)
	}
	mon.Switch(e2)
	if !hostCheck(t, mon, region.Base, perm.Read) {
		t.Error("consumer must read the shared region")
	}
	if hostCheck(t, mon, region.Base, perm.Write) {
		t.Error("consumer must not write a read-only share")
	}
}

func TestIPC(t *testing.T) {
	mon := boot(t, ModeHPMP)
	enc, _, _ := mon.CreateEnclave()
	if _, err := mon.SendMessage(enc, []byte("hello enclave")); err != nil {
		t.Fatal(err)
	}
	msg, _, err := mon.ReceiveMessage(enc)
	if err != nil || string(msg) != "hello enclave" {
		t.Errorf("IPC round trip: %q %v", msg, err)
	}
	// Empty mailbox returns nil.
	msg, _, err = mon.ReceiveMessage(enc)
	if err != nil || msg != nil {
		t.Errorf("empty mailbox: %q %v", msg, err)
	}
}

func TestMeasurementAndAttest(t *testing.T) {
	mon := boot(t, ModeHPMP)
	enc, _, _ := mon.CreateEnclave()
	region := addr.Range{Base: 0x1000_0000, Size: 64 * addr.KiB}
	mon.AddRegion(enc, region, perm.RWX, LabelSlow)
	mon.Mach.Mem.Write64(region.Base, 0x1234)

	m1, err := mon.Measure(enc)
	if err != nil {
		t.Fatal(err)
	}
	if mon.domains[enc].Measurement != m1 {
		t.Error("Measure must record the measurement on the domain")
	}
	// Tampering changes the measurement.
	mon.Mach.Mem.Write64(region.Base, 0x9999)
	m2, _ := mon.Measure(enc)
	if m1 == m2 {
		t.Error("different content must measure differently")
	}
}

func TestDestroyDomain(t *testing.T) {
	mon := boot(t, ModeHPMP)
	enc, _, _ := mon.CreateEnclave()
	region := addr.Range{Base: 0x1000_0000, Size: 64 * addr.KiB}
	mon.AddRegion(enc, region, perm.RWX, LabelSlow)
	if _, err := mon.DestroyDomain(HostDomain); err == nil {
		t.Error("host must not be destroyable")
	}
	if _, err := mon.DestroyDomain(enc); err != nil {
		t.Fatal(err)
	}
	if _, ok := mon.domains[enc]; ok {
		t.Error("destroyed domain still present")
	}
	if !hostCheck(t, mon, region.Base, perm.Read) {
		t.Error("host must regain destroyed enclave's memory")
	}
	// Cannot destroy the running domain.
	e2, _, _ := mon.CreateEnclave()
	mon.Switch(e2)
	if _, err := mon.DestroyDomain(e2); err == nil {
		t.Error("running domain must not be destroyable")
	}
}

// TestEndToEndMemoryAccessThroughMonitor exercises the full stack: the
// monitor boots in HPMP mode, the host kernel builds page tables inside a
// fast GMS, and a user access goes through MMU + HPMP with the Fig. 4
// reference count.
func TestEndToEndMemoryAccessThroughMonitor(t *testing.T) {
	mon := boot(t, ModeHPMP)
	mach := mon.Mach

	// Kernel: a contiguous, fast-labelled PT pool.
	ptRegion := addr.Range{Base: 0x1800_0000, Size: 4 * addr.MiB}
	id, _, err := mon.AddRegion(HostDomain, ptRegion, perm.RW, LabelFast)
	if err != nil {
		t.Fatal(err)
	}
	_ = id
	ptAlloc := phys.NewFrameAllocator(ptRegion, false)
	tbl, err := pt.New(mach.Mem, ptAlloc, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x4000_0000)
	if err := tbl.Map(va, 0x800_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	mach.MMU.SetRoot(tbl.Root())
	mach.MMU.FlushTLB()

	res, err := mmuAccess(mach.MMU, va, perm.Read, perm.U, mach.Core.Now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faulted() {
		t.Fatalf("fault: %+v", res)
	}
	if res.TotalRefs() != 6 {
		t.Errorf("full-stack HPMP access = %d refs, want 6 (Fig. 4); breakdown: PT=%d ptChk=%d dataChk=%d",
			res.TotalRefs(), res.Walk.PTRefs, res.Walk.PTCheckRefs, res.DataCheckRefs)
	}
}

func TestPMPTModeEndToEndRefs(t *testing.T) {
	mon := boot(t, ModePMPT)
	mach := mon.Mach
	ptRegion := addr.Range{Base: 0x1800_0000, Size: 4 * addr.MiB}
	ptAlloc := phys.NewFrameAllocator(ptRegion, false)
	tbl, err := pt.New(mach.Mem, ptAlloc, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x4000_0000)
	tbl.Map(va, 0x800_0000, perm.RW, true)
	mach.MMU.SetRoot(tbl.Root())
	mach.MMU.FlushTLB()

	res, err := mmuAccess(mach.MMU, va, perm.Read, perm.U, mach.Core.Now)
	if err != nil || res.Faulted() {
		t.Fatalf("%+v %v", res, err)
	}
	if res.TotalRefs() != 12 {
		t.Errorf("full-stack PMPT access = %d refs, want 12 (Fig. 2-c)", res.TotalRefs())
	}
}

// mmuAccess adapts the out-param MMU.Access to the value-returning shape the
// tests were written against.
func mmuAccess(m *mmu.MMU, va addr.VA, k perm.Access, priv perm.Priv, now uint64) (mmu.Result, error) {
	var res mmu.Result
	err := m.Access(va, k, priv, now, &res)
	return res, err
}
