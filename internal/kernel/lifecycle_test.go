package kernel

// Tests of the page and frame lifecycle: how a frame is shared by fork,
// moved by a CoW copy or a hint, and released by munmap, exec and exit to
// the pool that owns it.

import (
	"sort"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
)

// switchTo schedules pid unless it already runs, so a warm TLB stays warm.
func switchTo(t *testing.T, k *Kernel, pid PID) {
	t.Helper()
	if k.current == pid {
		return
	}
	if err := k.SwitchTo(pid); err != nil {
		t.Fatal(err)
	}
}

// load reads va in p through a fresh Env (a failure is final for its Env).
func load(t *testing.T, k *Kernel, p *Process, va addr.VA) (uint64, error) {
	t.Helper()
	switchTo(t, k, p.PID)
	e := &Env{K: k, P: p}
	v := e.Load64(va)
	return v, e.Err()
}

// store writes v at va in p.
func store(t *testing.T, k *Kernel, p *Process, va addr.VA, v uint64) {
	t.Helper()
	switchTo(t, k, p.PID)
	e := &Env{K: k, P: p}
	if e.Store64(va, v); e.Err() != nil {
		t.Fatalf("store %v in %d: %v", va, p.PID, e.Err())
	}
}

// drainFreeList allocates from a sequential pool until it hands out a frame
// it never gave before, and reports whether pa came off its free list.
func drainFreeList(a *phys.FrameAllocator, pa addr.PA) bool {
	for {
		hw := a.HighWater()
		got, err := a.Alloc()
		if err != nil || a.HighWater() != hw {
			return false
		}
		if got == pa {
			return true
		}
	}
}

func TestMUnmapSharedPageFlushesTLB(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	base := e.Alloc(addr.PageSize)
	store(t, k, e.P, base, 0x11)
	if _, err := k.Fork(e.P); err != nil {
		t.Fatal(err)
	}
	if v, err := load(t, k, e.P, base); err != nil || v != 0x11 {
		t.Fatalf("warm load = %#x, %v", v, err)
	}
	if err := k.MUnmap(e.P, base); err != nil {
		t.Fatal(err)
	}
	if v, err := load(t, k, e.P, base); err == nil {
		t.Errorf("load after munmap of a shared page read %#x, want a segfault", v)
	}
}

func TestHintOnSharedPageKeepsChildFrame(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	buf := e.Alloc(addr.PageSize)
	store(t, k, e.P, buf, 0xaaaa)
	child, err := k.Fork(e.P)
	if err != nil {
		t.Fatal(err)
	}
	old := child.pages[buf].pa
	if err := k.IoctlCreateHint(e, buf, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	third, err := k.Spawn(Image{Name: "third", TextPages: 4, DataPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	store(t, k, third, third.Heap(), 0xbbbb)
	if v, err := load(t, k, child, buf); err != nil || v != 0xaaaa {
		t.Errorf("child read %#x, %v after the parent's hint; want 0xaaaa", v, err)
	}
	if drainFreeList(k.userAlloc, old) {
		t.Errorf("the child's frame %v is on the host free list", old)
	}
}

func TestEnclaveMUnmapReturnsFrameToEnclavePool(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	spawnEnv(t, k)
	p, err := k.SpawnEnclave(Image{Name: "enc", TextPages: 4, DataPages: 4}, 4*addr.MiB)
	if err != nil {
		t.Fatal(err)
	}
	buf := p.MMap(1, perm.RW)
	store(t, k, p, buf, 1)
	pa := p.pages[buf].pa
	host, enc := k.userAlloc.Allocated(), p.enclave.userAlloc.Allocated()
	if err := k.MUnmap(p, buf); err != nil {
		t.Fatal(err)
	}
	if got := k.userAlloc.Allocated(); got != host {
		t.Errorf("host pool allocated %d -> %d: an enclave frame went to the host", host, got)
	}
	if got := p.enclave.userAlloc.Allocated(); got != enc-1 {
		t.Errorf("enclave pool allocated %d -> %d, want %d", enc, got, enc-1)
	}
	if next, err := p.enclave.userAlloc.Alloc(); err != nil || next != pa {
		t.Errorf("enclave pool handed out %v, %v; want the freed frame %v", next, err, pa)
	}
}

func TestForkAfterHintKeepsCoW(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	e := spawnEnv(t, k)
	buf := e.Alloc(addr.PageSize)
	store(t, k, e.P, buf, 1)
	if _, err := k.Fork(e.P); err != nil {
		t.Fatal(err)
	}
	if err := k.IoctlCreateHint(e, buf, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	second, err := k.Fork(e.P)
	if err != nil {
		t.Fatal(err)
	}
	store(t, k, e.P, buf, 2)
	if v, err := load(t, k, second, buf); err != nil || v != 1 {
		t.Errorf("second child read %#x, %v; want 1", v, err)
	}
}

func TestHintRefusesEnclaveProcess(t *testing.T) {
	k := bootKernel(t, monitor.ModeHPMP)
	spawnEnv(t, k)
	p, err := k.SpawnEnclave(Image{Name: "enc", TextPages: 4, DataPages: 4}, 4*addr.MiB)
	if err != nil {
		t.Fatal(err)
	}
	store(t, k, p, p.Heap(), 0x5ec)
	if err := k.IoctlCreateHint(&Env{K: k, P: p}, p.Heap(), addr.PageSize); err == nil {
		t.Fatal("hinting an enclave process must fail")
	}
	if pa := p.pages[p.Heap()].pa; !p.enclave.region.Contains(pa) {
		t.Errorf("enclave page moved to %v, outside its block", pa)
	}
	if v, err := load(t, k, p, p.Heap()); err != nil || v != 0x5ec {
		t.Errorf("enclave read %#x, %v after a refused hint", v, err)
	}
}

// Model test: a seeded random sequence of process lifecycle operations,
// checked after every step against a plain map of each live process's
// values and against every frame pool's allocated count.

// Lifecycle operations, one per program byte triple (op, a, b).
const (
	opSpawn = iota
	opSpawnEnclave
	opFork
	opStore
	opLoad
	opLoadUnmapped
	opMMap
	opMUnmap
	opExec
	opExit
	opHint
	opSwitch
	numOps
)

const (
	modelMaxProcs  = 6
	modelHeapPages = 4
	modelMMapPages = 2
)

// modelProc is the model's view of one live process.
type modelProc struct {
	p       *Process
	vals    map[addr.VA]uint64 // every word stored and not since dropped
	regions []addr.VA          // live MMap regions
	dead    []addr.VA          // unmapped regions: loads must fault
}

type lifecycleModel struct {
	t      *testing.T
	k      *Kernel
	procs  map[PID]*modelProc
	stores uint64 // stores so far: each writes a value of its own
	// Post-boot allocated counts of the host, hint and PT pools.
	host, hint, pt uint64
	cov            lifecycleCoverage
}

// lifecycleCoverage counts the situations a program must reach for the
// model test to mean anything.
type lifecycleCoverage struct {
	sharedUnmaps  int // munmaps of a region holding a CoW-shared frame
	sharedHints   int // hints over a CoW-shared page
	enclaveUnmaps int // munmaps of a materialized enclave region
	unmappedLoads int // loads of an unmapped region
}

// shared reports whether any materialized page of p in [va, va+pages)
// shares its frame.
func (m *lifecycleModel) shared(p *Process, va addr.VA, pages int) (shared, mapped bool) {
	for i := 0; i < pages; i++ {
		if pg, ok := p.pages[va+addr.VA(i*addr.PageSize)]; ok {
			mapped = true
			shared = shared || m.k.shares[pg.pa] > 0
		}
	}
	return shared, mapped
}

func newLifecycleModel(t *testing.T) *lifecycleModel {
	k := bootKernel(t, monitor.ModeHPMP)
	return &lifecycleModel{t: t, k: k, procs: make(map[PID]*modelProc),
		host: k.userAlloc.Allocated(), hint: k.hintAlloc.Allocated(), pt: k.ptAlloc.Allocated()}
}

// pids returns the live pids in ascending order.
func (m *lifecycleModel) pids() []PID {
	out := make([]PID, 0, len(m.procs))
	for pid := range m.procs {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// slot picks a word in mp's heap or one of its MMap regions.
func slot(mp *modelProc, b byte) addr.VA {
	off := addr.VA(b&3) * 8
	if b&4 == 0 || len(mp.regions) == 0 {
		return mp.p.Heap() + addr.VA(int(b>>3)%modelHeapPages*addr.PageSize) + off
	}
	base := mp.regions[int(b>>3)%len(mp.regions)]
	return base + addr.VA(int(b>>6)%modelMMapPages*addr.PageSize) + off
}

func (m *lifecycleModel) spawn(enclave bool) {
	img := Image{Name: "m", TextPages: 2, DataPages: 2, HeapPages: modelHeapPages}
	var p *Process
	var err error
	if enclave {
		p, err = m.k.SpawnEnclave(img, 4*addr.MiB)
	} else {
		p, err = m.k.Spawn(img)
	}
	if err != nil {
		m.t.Fatal(err)
	}
	m.procs[p.PID] = &modelProc{p: p, vals: make(map[addr.VA]uint64)}
}

func (m *lifecycleModel) step(op, a, b byte) {
	t, k := m.t, m.k
	pids := m.pids()
	if len(pids) == 0 {
		m.spawn(false)
		return
	}
	mp := m.procs[pids[int(a)%len(pids)]]
	p := mp.p
	switch op % numOps {
	case opSpawn, opSpawnEnclave:
		if len(pids) < modelMaxProcs {
			m.spawn(op%numOps == opSpawnEnclave)
		}
	case opFork:
		switchTo(t, k, p.PID) // fork clones the running process
		child, err := k.Fork(p)
		if p.IsEnclave() != (err != nil) {
			t.Fatalf("fork of %d (enclave %v): %v", p.PID, p.IsEnclave(), err)
		}
		if err != nil {
			return
		}
		cp := &modelProc{p: child, vals: make(map[addr.VA]uint64),
			regions: append([]addr.VA(nil), mp.regions...), dead: append([]addr.VA(nil), mp.dead...)}
		for va, v := range mp.vals {
			cp.vals[va] = v
		}
		m.procs[child.PID] = cp
		if len(m.procs) > modelMaxProcs {
			m.exit(child.PID)
		}
	case opStore:
		m.stores++
		va, v := slot(mp, b), m.stores
		store(t, k, p, va, v)
		mp.vals[va] = v
	case opLoad:
		va := slot(mp, b)
		if v, err := load(t, k, p, va); err != nil || v != mp.vals[va] {
			t.Fatalf("pid %d load %v = %#x, %v; want %#x", p.PID, va, v, err, mp.vals[va])
		}
	case opLoadUnmapped:
		if len(mp.dead) == 0 {
			return
		}
		va := mp.dead[int(b)%len(mp.dead)] + addr.VA(int(b>>4)%modelMMapPages*addr.PageSize)
		if v, err := load(t, k, p, va); err == nil {
			t.Fatalf("pid %d load of unmapped %v read %#x, want a segfault", p.PID, va, v)
		}
		m.cov.unmappedLoads++
	case opMMap:
		if len(mp.regions) < 3 {
			mp.regions = append(mp.regions, p.MMap(modelMMapPages, perm.RW))
		}
	case opMUnmap:
		if len(mp.regions) == 0 {
			return
		}
		i := int(b) % len(mp.regions)
		base := mp.regions[i]
		shared, mapped := m.shared(p, base, modelMMapPages)
		if shared {
			m.cov.sharedUnmaps++
		}
		if mapped && p.IsEnclave() {
			m.cov.enclaveUnmaps++
		}
		if err := k.MUnmap(p, base); err != nil {
			t.Fatal(err)
		}
		mp.regions = append(mp.regions[:i], mp.regions[i+1:]...)
		mp.dead = append(mp.dead, base)
		for va := range mp.vals {
			if va >= base && va < base+modelMMapPages*addr.PageSize {
				delete(mp.vals, va)
			}
		}
	case opExec:
		if err := k.Exec(p, Image{Name: "x", TextPages: 2, DataPages: 2, HeapPages: modelHeapPages}); err != nil {
			t.Fatal(err)
		}
		mp.dead = append(mp.dead, mp.regions...)
		mp.regions = nil
		mp.vals = make(map[addr.VA]uint64)
	case opExit:
		m.exit(p.PID)
	case opHint:
		switchTo(t, k, p.PID)
		first := int(b) % (modelHeapPages - 1) // hint one or two heap pages
		va, pages := p.Heap()+addr.VA(first*addr.PageSize), 1+int(b>>4)%2
		if shared, _ := m.shared(p, va, pages); shared {
			m.cov.sharedHints++
		}
		err := k.IoctlCreateHint(&Env{K: k, P: p}, va, uint64(pages)*addr.PageSize)
		if p.IsEnclave() != (err != nil) {
			t.Fatalf("hint in %d (enclave %v): %v", p.PID, p.IsEnclave(), err)
		}
	case opSwitch:
		switchTo(t, k, p.PID)
	}
}

func (m *lifecycleModel) exit(pid PID) {
	if err := m.k.Exit(pid); err != nil {
		m.t.Fatal(err)
	}
	delete(m.procs, pid)
}

// check compares every live process's memory with the model and every
// pool's allocated count with the distinct frames live processes map from
// it.
func (m *lifecycleModel) check() {
	t, k := m.t, m.k
	owners := make(map[addr.PA]int)
	var host, hint uint64
	var pt uint64
	for _, pid := range m.pids() {
		mp := m.procs[pid]
		p := mp.p
		for va, want := range mp.vals {
			pg, ok := p.pages[va.PageBase()]
			if !ok {
				t.Fatalf("pid %d: stored page %v is not mapped", pid, va.PageBase())
			}
			if got, err := k.Mach.Mem.Read64(pg.pa + addr.PA(va.Offset())); err != nil || got != want {
				t.Fatalf("pid %d: word %v holds %#x, %v; want %#x", pid, va, got, err, want)
			}
		}
		var own uint64
		for _, pg := range p.pages {
			owners[pg.pa]++
			if owners[pg.pa] > 1 {
				continue
			}
			switch {
			case p.IsEnclave():
				if !p.enclave.userAlloc.Region().Contains(pg.pa) {
					t.Fatalf("pid %d: enclave frame %v outside its pool", pid, pg.pa)
				}
				own++
			case k.hintRegion.Contains(pg.pa):
				hint++
			default:
				host++
			}
		}
		if p.IsEnclave() {
			if got := p.enclave.userAlloc.Allocated(); got != own {
				t.Fatalf("pid %d: enclave pool allocated %d, maps %d frames", pid, got, own)
			}
		} else {
			pt += uint64(len(p.Table.PTPages()))
		}
	}
	if got := k.userAlloc.Allocated(); got != m.host+host {
		t.Fatalf("host pool allocated %d, want %d boot + %d mapped", got, m.host, host)
	}
	if got := k.hintAlloc.Allocated(); got != m.hint+hint {
		t.Fatalf("hint pool allocated %d, want %d boot + %d mapped", got, m.hint, hint)
	}
	if got := k.ptAlloc.Allocated(); got != m.pt+pt {
		t.Fatalf("PT pool allocated %d, want %d boot + %d live", got, m.pt, pt)
	}
	for pa, n := range owners {
		if want := n - 1; k.shares[pa] != want {
			t.Fatalf("frame %v: %d owners, share count %d", pa, n, k.shares[pa])
		}
	}
	if len(k.shares) > len(owners) {
		t.Fatalf("%d share counts for %d mapped frames", len(k.shares), len(owners))
	}
}

// runLifecycle drives one model through prog, three bytes per operation,
// then exits every process and checks the host, hint and PT pools are back
// at their post-boot counts and no enclave block is left carved.
func runLifecycle(t *testing.T, prog []byte) lifecycleCoverage {
	m := newLifecycleModel(t)
	for ; len(prog) >= 3; prog = prog[3:] {
		m.step(prog[0], prog[1], prog[2])
		m.check()
	}
	for _, pid := range m.pids() {
		m.exit(pid)
	}
	m.check()
	if len(m.k.shares) != 0 {
		t.Fatalf("%d share counts left after every process exited", len(m.k.shares))
	}
	if m.k.enclaveCarved != 0 || len(m.k.enclaveFree) != 0 {
		t.Fatalf("%d bytes carved and free blocks %v left after every process exited", m.k.enclaveCarved, m.k.enclaveFree)
	}
	return m.cov
}

// lifecycleMix weights the seeded programs towards accesses.
var lifecycleMix = []byte{opSpawn, opSpawn, opSpawnEnclave, opFork, opFork,
	opStore, opStore, opStore, opStore, opStore, opLoad, opLoad, opLoad, opLoad,
	opLoadUnmapped, opLoadUnmapped, opMMap, opMMap, opMUnmap, opMUnmap,
	opExec, opExit, opHint, opHint, opSwitch}

func TestProcessLifecycleModel(t *testing.T) {
	var cov lifecycleCoverage
	for _, seed := range []uint64{1, 2, 3, 0x9e3779b97f4a7c15} {
		rng := seqRNG(seed)
		prog := make([]byte, 3*400)
		for i := range prog {
			prog[i] = byte(rng.next())
			if i%3 == 0 {
				prog[i] = lifecycleMix[rng.intn(len(lifecycleMix))]
			}
		}
		c := runLifecycle(t, prog)
		cov.sharedUnmaps += c.sharedUnmaps
		cov.sharedHints += c.sharedHints
		cov.enclaveUnmaps += c.enclaveUnmaps
		cov.unmappedLoads += c.unmappedLoads
	}
	t.Logf("coverage %+v", cov)
	if cov.sharedUnmaps == 0 || cov.sharedHints == 0 || cov.enclaveUnmaps == 0 || cov.unmappedLoads == 0 {
		t.Errorf("the programs missed a situation: %+v", cov)
	}
}

func FuzzProcessLifecycle(f *testing.F) {
	f.Add([]byte{opSpawn, 0, 0, opMMap, 0, 0, opStore, 0, 4, opFork, 0, 0, opLoad, 0, 4,
		opMUnmap, 0, 0, opLoadUnmapped, 0, 0})
	f.Add([]byte{opSpawn, 0, 0, opStore, 0, 0, opFork, 0, 0, opHint, 0, 0, opFork, 0, 0,
		opStore, 0, 0, opLoad, 2, 0})
	f.Add([]byte{opSpawn, 0, 0, opSpawnEnclave, 0, 0, opMMap, 1, 0, opStore, 1, 4,
		opMUnmap, 1, 0, opHint, 1, 0, opExec, 1, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*200 {
			prog = prog[:3*200]
		}
		runLifecycle(t, prog)
	})
}
