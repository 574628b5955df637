package kernel

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

// newBareMachine builds a machine with one all-covering RWX segment and no
// monitor (the Host-PMP posture).
func newBareMachine(t *testing.T) *cpu.Machine {
	t.Helper()
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	if err := mach.Checker.SetSegment(0, addr.Range{Base: 0, Size: memSize}, perm.RWX, false); err != nil {
		t.Fatal(err)
	}
	return mach
}

func TestHintLifecycle(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	buf := e.Alloc(8 * addr.PageSize)
	// Write recognizable data pre-migration.
	e.Store64(buf, 0xfeed)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	if err := k.IoctlCreateHint(e, buf, 8*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	// Data survived the migration.
	v, err := e.Load64(buf), e.Err()
	if err != nil || v != 0xfeed {
		t.Fatalf("post-migration load = %#x, %v", v, err)
	}
	// The backing frames now live inside the contiguous hint window.
	pa, err := k.Mach.MMU.Translate(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !k.hintRegion.Contains(pa) {
		t.Errorf("hinted page at %v, outside hint window %v", pa, k.hintRegion)
	}

	// Under HPMP the hinted data page is now segment-checked: a cold-TLB
	// access costs 4 references (like pure PMP), not 6.
	k.Mach.MMU.FlushTLB()
	res, err := mmuAccess(k.Mach.MMU, buf, perm.Read, perm.U, k.Mach.Core.Now)
	if err != nil || res.Faulted() {
		t.Fatalf("%+v %v", res, err)
	}
	if res.TotalRefs() != 4 {
		t.Errorf("hinted access = %d refs, want 4 (segment-checked data)", res.TotalRefs())
	}

	// Only the first hint relabels the window.
	labels := k.Mon.Counters.Snapshot()["monitor.set_label"]
	if labels == 0 {
		t.Fatal("the first hint did not relabel the window")
	}
	if err := k.IoctlCreateHint(e, e.Alloc(addr.PageSize), addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := k.Mon.Counters.Snapshot()["monitor.set_label"]; got != labels {
		t.Errorf("second hint relabelled the window: monitor.set_label %d -> %d", labels, got)
	}
}

func TestHintUnmappedRangeFaultsIn(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	buf := e.Alloc(4 * addr.PageSize) // never touched
	if err := k.IoctlCreateHint(e, buf, 4*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	// All four pages materialized directly in the window.
	for i := 0; i < 4; i++ {
		pa, err := k.Mach.MMU.Translate(buf + addr.VA(i*addr.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if !k.hintRegion.Contains(pa) {
			t.Errorf("page %d at %v outside window", i, pa)
		}
	}
}

func TestHintWithoutMonitorFails(t *testing.T) {
	mach := newBareMachine(t)
	k, err := New(mach, nil, DefaultConfig(memSize))
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(Image{Name: "x", TextPages: 4, DataPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := k.NewEnv(p)
	if err := k.IoctlCreateHint(e, e.Alloc(addr.PageSize), addr.PageSize); err == nil {
		t.Error("hints without a monitor must fail")
	}
}

func TestHintReducesOverheadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Scattered pointer chasing over a buffer: with the hint, HPMP's
	// per-miss cost drops to PMP levels.
	run := func(useHint bool) uint64 {
		k := bootKernel(t, monitor.ModeHPMP)
		e := spawnEnv(t, k)
		const pages = 256
		buf := e.Alloc(pages * addr.PageSize)
		if err := e.Touch(buf, pages*addr.PageSize); err != nil {
			t.Fatal(err)
		}
		if useHint {
			if err := k.IoctlCreateHint(e, buf, pages*addr.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		k.Mach.MMU.FlushTLB()
		start := k.Mach.Core.Now
		rng := uint64(0x1234567)
		for i := 0; i < 2000; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			off := (rng % (pages * addr.PageSize / 8)) * 8
			if _, err := e.Load64(buf+addr.VA(off)), e.Err(); err != nil {
				t.Fatal(err)
			}
		}
		return k.Mach.Core.Now - start
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Errorf("hinted run (%d cycles) must beat unhinted (%d)", with, without)
	}
}

func TestExitAfterHintFreesCorrectPools(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	buf := e.Alloc(4 * addr.PageSize)
	if err := k.IoctlCreateHint(e, buf, 4*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	// Exit must return hinted frames to the hint pool and ordinary frames
	// to the user pool without tripping the double-free/foreign-free
	// guards.
	if err := k.Exit(e.P.PID); err != nil {
		t.Fatal(err)
	}
	// The hint window is reusable by the next process.
	p2, _ := k.Spawn(Image{Name: "next", TextPages: 4, DataPages: 4})
	e2, _ := k.NewEnv(p2)
	buf2 := e2.Alloc(4 * addr.PageSize)
	if err := k.IoctlCreateHint(e2, buf2, 4*addr.PageSize); err != nil {
		t.Fatalf("hint window not recycled: %v", err)
	}
}
