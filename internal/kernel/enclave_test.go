package kernel

import (
	"slices"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

func TestSpawnEnclaveLifecycle(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	host := spawnEnv(t, k)
	host.Store64(host.P.Heap(), 0x40)
	_ = host

	p, err := k.SpawnEnclave(Image{Name: "fn", TextPages: 8, DataPages: 8}, 8*addr.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsEnclave() || p.Domain() == monitor.HostDomain {
		t.Fatal("process must be enclave-hosted")
	}
	e, err := k.NewEnv(p)
	if err != nil {
		t.Fatal(err)
	}
	// Scheduling the enclave process switched the domain.
	if k.Mon.Current() != p.Domain() {
		t.Errorf("monitor domain = %d, want %d", k.Mon.Current(), p.Domain())
	}
	// The enclave workload runs: loads, stores, demand paging — entirely
	// out of enclave memory.
	e.Store64(p.Heap(), 0xe0c1a5e)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	v, err := e.Load64(p.Heap()), e.Err()
	if err != nil || v != 0xe0c1a5e {
		t.Fatalf("enclave load = %#x, %v", v, err)
	}
	pa, err := k.Mach.MMU.Translate(p.Heap())
	if err != nil {
		t.Fatal(err)
	}
	if !p.enclave.region.Contains(pa) {
		t.Errorf("enclave data frame %v outside donated block %v", pa, p.enclave.region)
	}
	// Its PT pages come from the enclave's own fast pool, inside the block.
	for _, pp := range p.Table.PTPages() {
		if !p.enclave.region.Contains(pp) {
			t.Errorf("enclave PT page %v outside donated block", pp)
		}
	}

	// Under HPMP the enclave's PT pool rides a segment: a cold-TLB access
	// costs 6 refs, as for the host (Fig. 4, enclave side).
	k.Mach.MMU.FlushTLB()
	res, err := mmuAccess(k.Mach.MMU, p.Heap(), perm.Read, perm.U, k.Mach.Core.Now)
	if err != nil || res.Faulted() {
		t.Fatalf("%+v %v", res, err)
	}
	if res.TotalRefs() != 6 {
		t.Errorf("enclave cold access = %d refs, want 6", res.TotalRefs())
	}

	// Teardown destroys the domain and scrubs memory.
	secretPA := pa
	if err := k.Exit(p.PID); err != nil {
		t.Fatal(err)
	}
	if v, _ := k.Mach.Mem.Read64(secretPA); v != 0 {
		t.Error("enclave memory must be scrubbed on exit")
	}
	if k.Mon.Current() != monitor.HostDomain {
		t.Error("teardown must return to the host domain")
	}
}

func TestEnclaveIsolationFromHostProcesses(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	hostEnv := spawnEnv(t, k)

	p, err := k.SpawnEnclave(Image{Name: "secret-fn", TextPages: 4, DataPages: 4}, 4*addr.MiB)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := k.NewEnv(p)
	e.Store64(p.Heap(), 0x5ec)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	secretPA, _ := k.Mach.MMU.Translate(p.Heap())

	// Back to the host process; it forges a mapping at the enclave frame.
	if err := k.SwitchTo(hostEnv.P.PID); err != nil {
		t.Fatal(err)
	}
	if k.Mon.Current() != monitor.HostDomain {
		t.Fatal("scheduling a host process must switch back to the host domain")
	}
	evil := addr.VA(0x7300_0000)
	hostEnv.P.AddVMAAt(evil, 1, perm.RW)
	if err := hostEnv.P.Table.Map(evil, secretPA.PageBase(), perm.RW, true); err != nil {
		t.Fatal(err)
	}
	res, err := mmuAccess(k.Mach.MMU, evil, perm.Read, perm.U, k.Mach.Core.Now)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AccessFault {
		t.Errorf("host must not read enclave memory: %+v", res)
	}
}

func TestEnclaveSwitchRoundTrip(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	host := spawnEnv(t, k)
	encP, err := k.SpawnEnclave(Image{Name: "svc", TextPages: 4, DataPages: 4}, 4*addr.MiB)
	if err != nil {
		t.Fatal(err)
	}
	encE, _ := k.NewEnv(encP)
	encE.Store64(encP.Heap(), 1)
	// Ping-pong scheduling across the domain boundary.
	for i := 0; i < 5; i++ {
		if err := k.SwitchTo(host.P.PID); err != nil {
			t.Fatal(err)
		}
		if _, err := host.Load64(host.P.Heap()), host.Err(); err != nil {
			t.Fatal(err)
		}
		if err := k.SwitchTo(encP.PID); err != nil {
			t.Fatal(err)
		}
		if _, err := encE.Load64(encP.Heap()), encE.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExitValidation(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	spawnEnv(t, k)
	if err := k.Exit(12345); err == nil {
		t.Error("Exit of a missing pid must fail")
	}
}

func TestEnclaveLifecycleAllModes(t *testing.T) {
	// Regression guard for the PMP-priority bug: in PMP mode the host's
	// background segment must not shadow enclave entries.
	for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP} {
		k := bootKernel(t, mode)
		spawnEnv(t, k)
		p, err := k.SpawnEnclave(Image{Name: "fn", TextPages: 8, DataPages: 8}, 8*addr.MiB)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		e, err := k.NewEnv(p)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		buf := e.Alloc(64 * addr.PageSize)
		for i := 0; i < 64; i++ {
			e.Store64(buf+addr.VA(i*addr.PageSize), uint64(i))
			if err := e.Err(); err != nil {
				t.Fatalf("%v: page %d: %v", mode, i, err)
			}
		}
		if err := k.Exit(p.PID); err != nil {
			t.Fatalf("%v: exit: %v", mode, err)
		}
	}
}

func TestEnclaveProcessGuards(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	spawnEnv(t, k)
	p, err := k.SpawnEnclave(Image{Name: "g", TextPages: 4, DataPages: 4}, 4*addr.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Fork(p); err == nil {
		t.Error("forking an enclave process must fail")
	}
	domains := k.Mon.NumDomains()
	if err := k.Exit(p.PID); err != nil {
		t.Fatal(err)
	}
	if k.Mon.NumDomains() != domains-1 {
		t.Error("Exit of an enclave process must destroy its domain")
	}
	if k.Counters.Snapshot()["kernel.exit_enclave"] != 1 || k.Counters.Snapshot()["kernel.exit"] != 0 {
		t.Error("an enclave exit counts as kernel.exit_enclave only")
	}
}

func TestEnclaveCarveGuards(t *testing.T) {
	// Scattered host pool: enclave blocks are refused outright.
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	mon, _ := monitor.Boot(mach, monitor.DefaultConfig(monitor.ModeHPMP))
	cfg := DefaultConfig(memSize)
	cfg.ScatterFrames = true
	k, err := New(mach, mon, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.SpawnEnclave(Image{Name: "x", TextPages: 4, DataPages: 4}, 4*addr.MiB); err == nil {
		t.Error("scattered pool must refuse enclave blocks")
	}

	// Sequential pool: carving more than the region can hold fails cleanly.
	k2 := bootKernel(t, monitor.ModeHPMP)
	spawnEnv(t, k2)
	var spawned int
	for i := 0; i < 64; i++ {
		p, err := k2.SpawnEnclave(Image{Name: "e", TextPages: 4, DataPages: 4}, 32*addr.MiB)
		if err != nil {
			break
		}
		spawned++
		_ = p
	}
	if spawned == 0 || spawned >= 64 {
		t.Errorf("enclave carving should succeed several times then exhaust, got %d", spawned)
	}
}

// TestSpawnEnclaveFailureLeaksNothing: a spawn that fails after its block
// is carved gives the block back and destroys the half-built domain. Under
// PMP mode the monitor refuses a data region that is not NAPOT, so all but
// the first of these spawns fail in AddRegion.
func TestSpawnEnclaveFailureLeaksNothing(t *testing.T) {
	k := bootKernel(t, monitor.ModePMP)
	spawnEnv(t, k)
	failed := 0
	for _, mib := range []uint64{4, 5, 6, 4, 8} {
		carved, free, domains := k.enclaveCarved, slices.Clone(k.enclaveFree), k.Mon.NumDomains()
		if _, err := k.SpawnEnclave(Image{Name: "e", TextPages: 4, DataPages: 4}, mib*addr.MiB); err == nil {
			continue
		}
		failed++
		if k.enclaveCarved != carved || !slices.Equal(k.enclaveFree, free) || k.Mon.NumDomains() != domains {
			t.Errorf("failed %d MiB spawn: %d bytes carved, free blocks %v, %d domains; want %d, %v, %d",
				mib, k.enclaveCarved, k.enclaveFree, k.Mon.NumDomains(), carved, free, domains)
		}
	}
	if failed == 0 {
		t.Fatal("every spawn succeeded: the failure path went untested")
	}
}

// TestEnclaveExitReturnsBlock: an exited enclave gives its carved block
// back, so spawning and exiting one enclave at a time never runs out of
// memory (on this 512 MiB machine, keeping every block carved failed the
// 76th spawn) and ends with nothing carved.
func TestEnclaveExitReturnsBlock(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	spawnEnv(t, k)
	for i := 0; i < 1000; i++ {
		p, err := k.SpawnEnclave(Image{Name: "e", TextPages: 4, DataPages: 4}, 4*addr.MiB)
		if err != nil {
			t.Fatalf("spawn %d: %v", i+1, err)
		}
		if err := k.Exit(p.PID); err != nil {
			t.Fatalf("exit %d: %v", i+1, err)
		}
	}
	if k.enclaveCarved != 0 || len(k.enclaveFree) != 0 {
		t.Errorf("%d bytes carved and free blocks %v left, want none", k.enclaveCarved, k.enclaveFree)
	}
}

// TestEnclaveBlocksCoalesce: blocks given back out of order merge with
// each other and into the carve frontier, and a free block is reused
// before the frontier moves down.
func TestEnclaveBlocksCoalesce(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	spawnEnv(t, k)
	var ps []*Process
	for i := 0; i < 4; i++ {
		p, err := k.SpawnEnclave(Image{Name: "e", TextPages: 4, DataPages: 4}, 4*addr.MiB)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	carved := k.enclaveCarved
	// Blocks go down from the top: ps[3] holds the frontier. Exiting the
	// two middle blocks leaves one merged free block between live ones.
	for _, i := range []int{2, 1} {
		if err := k.Exit(ps[i].PID); err != nil {
			t.Fatal(err)
		}
	}
	want := addr.Range{Base: ps[2].enclave.region.Base, Size: 2 * ps[1].enclave.region.Size}
	if len(k.enclaveFree) != 1 || k.enclaveFree[0] != want || k.enclaveCarved != carved {
		t.Fatalf("free %v, carved %d; want [%v], %d", k.enclaveFree, k.enclaveCarved, want, carved)
	}
	// A new enclave takes the free block's low end; the frontier stays.
	p, err := k.SpawnEnclave(Image{Name: "e", TextPages: 4, DataPages: 4}, 4*addr.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if p.enclave.region.Base != want.Base || k.enclaveCarved != carved {
		t.Errorf("reused block at %v, carved %d; want %v, %d", p.enclave.region.Base, k.enclaveCarved, want.Base, carved)
	}
	// Exiting the frontier block merges everything free above it into the
	// frontier; exiting the rest leaves nothing carved.
	for _, q := range []*Process{ps[3], p, ps[0]} {
		if err := k.Exit(q.PID); err != nil {
			t.Fatal(err)
		}
	}
	if k.enclaveCarved != 0 || len(k.enclaveFree) != 0 {
		t.Errorf("%d bytes carved and free blocks %v left, want none", k.enclaveCarved, k.enclaveFree)
	}
}
