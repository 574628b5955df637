package kernel

import (
	"reflect"
	"strings"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

// mmuAccess adapts the out-param MMU.Access to a value-returning form for
// test assertions.
func mmuAccess(m *mmu.MMU, va addr.VA, k perm.Access, priv perm.Priv, now uint64) (mmu.Result, error) {
	var res mmu.Result
	err := m.Access(va, k, priv, now, &res)
	return res, err
}

const memSize = 512 * addr.MiB

func bootKernel(t *testing.T, mode monitor.Mode) *Kernel {
	t.Helper()
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(mach, mon, DefaultConfig(memSize))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func spawnEnv(t *testing.T, k *Kernel) *Env {
	t.Helper()
	p, err := k.Spawn(Image{Name: "app", TextPages: 16, DataPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	e, err := k.NewEnv(p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLoadStoreRoundTrip(t *testing.T) {
	for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP} {
		k := bootKernel(t, mode)
		e := spawnEnv(t, k)
		va := e.P.Heap()
		e.Store64(va, 0xfeedface)
		if err := e.Err(); err != nil {
			t.Fatalf("%v: store: %v", mode, err)
		}
		v, err := e.Load64(va), e.Err()
		if err != nil || v != 0xfeedface {
			t.Fatalf("%v: load = %#x, %v", mode, v, err)
		}
		if e.P.Faults == 0 {
			t.Errorf("%v: first touch must demand-fault", mode)
		}
	}
}

func TestBytesAcrossPages(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	va := e.P.Heap() + addr.VA(addr.PageSize) - 100 // straddles a page boundary
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	e.StoreBytes(va, data)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := e.LoadBytes(va, 300), e.Err()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, got[i], byte(i))
		}
	}
}

func TestDemandPagingCounts(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	va := e.Alloc(10 * addr.PageSize)
	for i := 0; i < 10; i++ {
		e.Store8(va+addr.VA(i*addr.PageSize), 1)
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if e.P.Faults != 10 {
		t.Errorf("faults = %d, want 10", e.P.Faults)
	}
	// Second pass: no more faults.
	before := e.P.Faults
	for i := 0; i < 10; i++ {
		e.Load8(va + addr.VA(i*addr.PageSize))
	}
	if e.P.Faults != before {
		t.Error("re-touch must not fault")
	}
}

func TestSegfault(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	if _, err := e.Load64(0x30_0000_0000), e.Err(); err == nil {
		t.Error("access outside every VMA must fail")
	}
}

// TestFailedAccessIsSticky: a segfault is kept as the Env's error, its
// load reads zero, and every later access of that Env is a free no-op.
func TestFailedAccessIsSticky(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	heap := e.P.Heap()
	e.Store64(heap, 7) // map a page the no-ops below would hit
	if v := e.Load64(0x30_0000_0000); v != 0 {
		t.Errorf("failed load = %#x, want 0", v)
	}
	segv := e.Err()
	if segv == nil || !strings.Contains(segv.Error(), "segfault") {
		t.Fatalf("Err() = %v, want the segfault", segv)
	}
	w := &twin{k: k, cur: e.P}
	now, mach, kern, mon, hists := w.state()
	if v := e.Load64(heap); v != 0 {
		t.Errorf("load after the failure = %#x, want 0", v)
	}
	e.Load32(heap)
	e.Load8(heap)
	e.Store64(heap, 1)
	e.Store32(heap, 1)
	e.Store8(heap, 1)
	e.StoreBytes(heap, []byte("after"))
	if got := e.LoadBytes(heap, 100); len(got) != 100 || string(got[:8]) != "\x00\x00\x00\x00\x00\x00\x00\x00" {
		t.Errorf("LoadBytes after the failure = %q", got[:8])
	}
	e.FetchAt(e.P.Code())
	ops, out := e.Block(2)
	ops[0] = cpu.BlockRef{VA: heap, Kind: perm.Read, Compute: 5}
	ops[1] = cpu.BlockRef{VA: heap + 8, Kind: perm.Write}
	if err := e.RunBlock(ops, out); err != segv {
		t.Errorf("RunBlock = %v, want the recorded %v", err, segv)
	}
	if err := e.Touch(heap+addr.PageSize, addr.PageSize); err != segv {
		t.Errorf("Touch = %v, want the recorded %v", err, segv)
	}
	now2, mach2, kern2, mon2, hists2 := w.state()
	if now2 != now {
		t.Errorf("core clock moved after the failure: %d -> %d", now, now2)
	}
	if !reflect.DeepEqual(mach2, mach) || !reflect.DeepEqual(kern2, kern) || !reflect.DeepEqual(mon2, mon) || !reflect.DeepEqual(hists2, hists) {
		t.Error("counters or histograms moved after the failure")
	}
	if e.Err() != segv {
		t.Errorf("Err() = %v, want the first failure %v", e.Err(), segv)
	}
	pa, err := k.Mach.MMU.Translate(heap)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k.Mach.Mem.Read64(pa); err != nil || got != 7 {
		t.Errorf("store after the failure reached memory: %#x, %v", got, err)
	}
}

func TestPTPagesComeFromPool(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	// Touch pages spread across the address space to force PT growth.
	for i := 0; i < 16; i++ {
		va := e.P.MMap(1, perm.RW)
		_ = va
	}
	for _, v := range e.P.vmas {
		e.Touch(v.Base, addr.PageSize)
	}
	for _, ptPage := range e.P.Table.PTPages() {
		if !k.cfg.PTPoolRegion.Contains(ptPage) {
			t.Fatalf("PT page %v outside the contiguous pool %v", ptPage, k.cfg.PTPoolRegion)
		}
	}
}

func TestWalkRefsMatchModeThroughKernel(t *testing.T) {
	// End-to-end: a cold-TLB user access under each mode shows the Fig. 2/4
	// reference counts, with the kernel (not the test) having built all
	// state.
	want := map[monitor.Mode]int{
		monitor.ModePMP:  4,
		monitor.ModePMPT: 12,
		monitor.ModeHPMP: 6,
	}
	for mode, refs := range want {
		k := bootKernel(t, mode)
		e := spawnEnv(t, k)
		va := e.P.Heap()
		e.Store64(va, 1) // materialize the page
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		k.Mach.MMU.FlushTLB()
		res, err := mmuAccess(k.Mach.MMU, va, perm.Read, perm.U, k.Mach.Core.Now)
		if err != nil || res.Faulted() {
			t.Fatalf("%v: %+v %v", mode, res, err)
		}
		// The PWC may have cached upper levels; flush made it cold, so the
		// full count must appear.
		if got := res.TotalRefs(); got != refs {
			t.Errorf("%v: refs = %d, want %d", mode, got, refs)
		}
	}
}

func TestForkCoW(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	va := e.P.Heap()
	e.Store64(va, 0x1111)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(e.P)
	if err != nil {
		t.Fatal(err)
	}
	// Child sees the parent's data...
	if err := k.SwitchTo(child.PID); err != nil {
		t.Fatal(err)
	}
	ce := &Env{K: k, P: child}
	v, err := ce.Load64(va), ce.Err()
	if err != nil || v != 0x1111 {
		t.Fatalf("child read = %#x, %v", v, err)
	}
	// ...and writes diverge.
	ce.Store64(va, 0x2222)
	if err := ce.Err(); err != nil {
		t.Fatal(err)
	}
	k.SwitchTo(e.P.PID)
	v, err = e.Load64(va), e.Err()
	if err != nil || v != 0x1111 {
		t.Errorf("parent must keep its copy: %#x, %v", v, err)
	}
	// Parent write also works (its mapping was downgraded for CoW).
	e.Store64(va, 0x3333)
	if err := e.Err(); err != nil {
		t.Fatalf("parent CoW write: %v", err)
	}
	if k.Counters.Get("kernel.cow_fault") == 0 {
		t.Error("expected CoW faults")
	}
}

func TestForkExitAndForkExec(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	e.Store64(e.P.Heap(), 7)
	n0 := k.NumProcesses()
	if err := k.ForkExit(e); err != nil {
		t.Fatal(err)
	}
	if k.NumProcesses() != n0 {
		t.Error("fork+exit must not leak processes")
	}
	if err := k.ForkExec(e, Image{Name: "hello", TextPages: 8, DataPages: 4}); err != nil {
		t.Fatal(err)
	}
	if k.NumProcesses() != n0 {
		t.Error("fork+exec+exit must not leak processes")
	}
}

func TestSyscallsRun(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	buf := e.Alloc(addr.PageSize)
	e.Touch(buf, addr.PageSize)
	peer, err := k.Spawn(Image{Name: "peer", TextPages: 4, DataPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	k.SwitchTo(e.P.PID)

	ops := []struct {
		name string
		fn   func() error
	}{
		{"null", k.SyscallNull},
		{"read", func() error { return k.SyscallRead(e, buf, 512) }},
		{"write", func() error { return k.SyscallWrite(e, buf, 512) }},
		{"stat", func() error { return k.SyscallStat(4) }},
		{"fstat", k.SyscallFstat},
		{"open/close", func() error { return k.SyscallOpenClose(4) }},
		{"pipe", func() error { return k.SyscallPipe(e, peer, 64) }},
	}
	prev := uint64(0)
	for _, op := range ops {
		before := k.Mach.Core.Now
		if err := op.fn(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		cost := k.Mach.Core.Now - before
		if cost == 0 {
			t.Errorf("%s: zero cost", op.name)
		}
		prev = cost
	}
	_ = prev
}

func TestNullCheapestStatExpensive(t *testing.T) {
	// Table 3 shape: null ≪ fstat < stat < open/close.
	k := bootKernel(t, monitor.ModePMPT)
	e := spawnEnv(t, k)
	_ = e
	measure := func(fn func() error) uint64 {
		// Warm up, then measure the steady state.
		for i := 0; i < 3; i++ {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}
		before := k.Mach.Core.Now
		for i := 0; i < 10; i++ {
			fn()
		}
		return (k.Mach.Core.Now - before) / 10
	}
	null := measure(k.SyscallNull)
	fstat := measure(k.SyscallFstat)
	stat := measure(func() error { return k.SyscallStat(4) })
	oc := measure(func() error { return k.SyscallOpenClose(4) })
	if !(null < fstat && fstat < stat && stat < oc) {
		t.Errorf("cost ordering wrong: null=%d fstat=%d stat=%d open/close=%d",
			null, fstat, stat, oc)
	}
}

func TestScatteredVsContiguousPT(t *testing.T) {
	// The non-HPMP-aware kernel (ContiguousPT=false) spreads PT pages
	// around; with a fast segment over the pool region they would not be
	// covered. Verify the layout difference materializes.
	mach := cpu.NewMachine(cpu.RocketPlatform(), memSize, true)
	mon, _ := monitor.Boot(mach, monitor.DefaultConfig(monitor.ModeHPMP))
	cfg := DefaultConfig(memSize)
	cfg.ContiguousPT = false
	cfg.ScatterFrames = true
	k, err := New(mach, mon, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(Image{Name: "x", TextPages: 4, DataPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	inPool := 0
	for _, pp := range p.Table.PTPages() {
		if cfg.PTPoolRegion.Contains(pp) {
			inPool++
		}
	}
	if inPool != 0 {
		t.Errorf("scattered kernel put %d PT pages in the pool region", inPool)
	}
}

func TestMUnmap(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	base := e.Alloc(4 * addr.PageSize)
	for i := 0; i < 4; i++ {
		e.Store64(base+addr.VA(i*addr.PageSize), uint64(i))
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
	}
	mapped := e.P.MappedPages()
	if err := k.MUnmap(e.P, base); err != nil {
		t.Fatal(err)
	}
	if e.P.MappedPages() != mapped-4 {
		t.Errorf("MappedPages = %d, want %d", e.P.MappedPages(), mapped-4)
	}
	// Access after munmap segfaults (no VMA). A failed access is final
	// for its Env, so probe through a second one.
	probe := &Env{K: k, P: e.P}
	if _, err := probe.Load64(base), probe.Err(); err == nil {
		t.Error("access after munmap must fail")
	}
	// Unmapping twice fails.
	if err := k.MUnmap(e.P, base); err == nil {
		t.Error("double munmap must fail")
	}
	// The freed frames are reusable.
	next := e.Alloc(4 * addr.PageSize)
	e.Store64(next, 99)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMUnmapSharedCoWFrames(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	base := e.Alloc(2 * addr.PageSize)
	e.Store64(base, 0x11)
	child, err := k.Fork(e.P)
	if err != nil {
		t.Fatal(err)
	}
	// Parent unmaps; the child's CoW-shared frame must survive.
	if err := k.MUnmap(e.P, base); err != nil {
		t.Fatal(err)
	}
	if err := k.SwitchTo(child.PID); err != nil {
		t.Fatal(err)
	}
	ce := &Env{K: k, P: child}
	v, err := ce.Load64(base), ce.Err()
	if err != nil || v != 0x11 {
		t.Errorf("child lost its CoW frame: %#x %v", v, err)
	}
}
