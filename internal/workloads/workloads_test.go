package workloads

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
)

func newEnv(t *testing.T, mode monitor.Mode) *kernel.Env {
	t.Helper()
	e, err := bootEnv(mode, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// bootEnv boots a Rocket system under mode whose user frame pool holds
// pages frames (0 keeps the default pool) and spawns one process on it.
func bootEnv(mode monitor.Mode, pages int) (*kernel.Env, error) {
	const mem = 512 * addr.MiB
	mach := cpu.NewMachine(cpu.RocketPlatform(), mem, true)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
	if err != nil {
		return nil, err
	}
	cfg := kernel.DefaultConfig(mem)
	if pages > 0 {
		cfg.UserRegion.Size = uint64(pages) * addr.PageSize
	}
	k, err := kernel.New(mach, mon, cfg)
	if err != nil {
		return nil, err
	}
	p, err := k.Spawn(kernel.Image{Name: "bench", TextPages: 32, DataPages: 32, HeapPages: 64 * 1024})
	if err != nil {
		return nil, err
	}
	return k.NewEnv(p)
}

func TestArrays(t *testing.T) {
	e := newEnv(t, monitor.ModeHPMP)
	a := NewU64Array(e, 100)
	a.Set(42, 0xabcdef)
	if v := a.Get(42); v != 0xabcdef {
		t.Errorf("u64: %#x", v)
	}
	b := NewU32Array(e, 10)
	b.Set(3, 77)
	if v := b.Get(3); v != 77 {
		t.Error("u32 roundtrip failed")
	}
	c := NewByteArray(e, 256)
	c.Fill(10, []byte("hello"))
	if got := c.Read(10, 5); string(got) != "hello" {
		t.Errorf("bytes: %q", got)
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestArrayBoundsPanic(t *testing.T) {
	e := newEnv(t, monitor.ModeHPMP)
	u64, u32, bytes := NewU64Array(e, 4), NewU32Array(e, 4), NewByteArray(e, 256)
	for name, f := range map[string]func(){
		"u64 Get":        func() { u64.Get(4) },
		"u32 Set":        func() { u32.Set(-1, 0) },
		"byte Get":       func() { bytes.Get(256) },
		"byte Set":       func() { bytes.Set(-1, 0) },
		"Read past end":  func() { bytes.Read(250, 10) },
		"Fill past end":  func() { bytes.Fill(250, make([]byte, 10)) },
		"negative range": func() { bytes.Read(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range must panic", name)
				}
			}()
			f()
		}()
	}
	if err := e.Err(); err != nil {
		t.Errorf("a range check is not an access failure: %v", err)
	}
}

// runBoth runs a workload under PMP and returns (checksum, cycles).
func runOne(t *testing.T, w Workload, mode monitor.Mode) (uint64, uint64) {
	t.Helper()
	e := newEnv(t, mode)
	start := e.Now()
	sum, err := w.Run(e)
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return sum, e.Now() - start
}

func TestRV8AllRunAndAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, w := range RV8Suite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			sum1, cyc := runOne(t, w, monitor.ModePMP)
			sum2, _ := runOne(t, w, monitor.ModePMPT)
			if sum1 != sum2 {
				t.Errorf("checksum differs across isolation modes: %#x vs %#x — isolation must not change results", sum1, sum2)
			}
			if cyc == 0 {
				t.Error("workload consumed no cycles")
			}
		})
	}
}

func TestQSortSortsCorrectly(t *testing.T) {
	// QSort.Run verifies sortedness internally; a failure returns an error.
	e := newEnv(t, monitor.ModeHPMP)
	if _, err := (&QSort{N: 512}).Run(e); err != nil {
		t.Fatal(err)
	}
}

func TestPrimesCount(t *testing.T) {
	e := newEnv(t, monitor.ModeHPMP)
	count, err := (&Primes{Limit: 100}).Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if count != 25 { // π(100) = 25
		t.Errorf("primes below 100 = %d, want 25", count)
	}
}

func TestKroneckerGraphWellFormed(t *testing.T) {
	e := newEnv(t, monitor.ModeHPMP)
	g, err := GenKronecker(e, 7, 4, 1), e.Err()
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 128 {
		t.Errorf("N = %d", g.N)
	}
	// CSR invariant: rowPtr is monotone, colIdx in range, edge count
	// matches.
	prev := uint32(0)
	for i := 0; i <= g.N; i++ {
		v := g.rowPtr.Get(i)
		if v < prev {
			t.Fatalf("rowPtr not monotone at %d", i)
		}
		prev = v
	}
	last := g.rowPtr.Get(g.N)
	if int(last) != g.colIdx.n {
		t.Errorf("rowPtr[N] = %d, %d edges", last, g.colIdx.n)
	}
	for i := 0; i < g.colIdx.n; i += 7 {
		v := g.colIdx.Get(i)
		if int(v) >= g.N {
			t.Fatalf("colIdx[%d] = %d out of range", i, v)
		}
	}
}

func TestGAPKernelsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, w := range GAPSuite(7) { // tiny graph for unit tests
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			sum, cyc := runOne(t, w, monitor.ModeHPMP)
			if cyc == 0 {
				t.Error("no cycles consumed")
			}
			_ = sum
		})
	}
}

func TestBFSDepthsSane(t *testing.T) {
	e := newEnv(t, monitor.ModeHPMP)
	g, err := GenKronecker(e, 6, 8, 3), e.Err()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := bfs(e, g, 1), e.Err()
	if err != nil {
		t.Fatal(err)
	}
	// Depth sum must be positive on a connected-ish Kron graph.
	if sum == 0 {
		t.Error("BFS found no reachable vertices beyond the source")
	}
}

func TestCCFindsComponents(t *testing.T) {
	e := newEnv(t, monitor.ModeHPMP)
	g, err := GenKronecker(e, 6, 8, 3), e.Err()
	if err != nil {
		t.Fatal(err)
	}
	roots, err := connectedComponents(e, g), e.Err()
	if err != nil {
		t.Fatal(err)
	}
	if roots == 0 || roots > uint64(g.N) {
		t.Errorf("components = %d out of range", roots)
	}
}

func TestFuncBenchAllRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, w := range FuncBenchSuite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			sum1, cyc := runOne(t, w, monitor.ModePMP)
			sum2, _ := runOne(t, w, monitor.ModeHPMP)
			if sum1 != sum2 {
				t.Errorf("checksum differs across modes: %#x vs %#x", sum1, sum2)
			}
			if cyc == 0 {
				t.Error("no cycles consumed")
			}
		})
	}
}

func TestImageChainStagesCompose(t *testing.T) {
	e := newEnv(t, monitor.ModeHPMP)
	chain := &ImageChain{Size: 32}
	var payload []byte
	var err error
	for s := 0; s < StageCount; s++ {
		payload, err = chain.RunStage(e, s, payload)
		if err != nil {
			t.Fatalf("stage %d: %v", s, err)
		}
		if len(payload) == 0 {
			t.Fatalf("stage %d produced empty payload", s)
		}
	}
	// The RLE output should be smaller than the raw half-size image for
	// this synthetic input... at minimum it must be non-trivial.
	if len(payload) < 16 {
		t.Errorf("final payload suspiciously small: %d bytes", len(payload))
	}
}

func TestPMPTCostsMoreThanPMPOnServerless(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// The paper's core result at workload level: a short-lived function
	// pays more under the permission table than under segments, and HPMP
	// lands in between (close to PMP).
	w := &Chameleon{Rows: 40, Cols: 10}
	_, pmp := runOne(t, w, monitor.ModePMP)
	_, pmpt := runOne(t, w, monitor.ModePMPT)
	_, hpmp := runOne(t, w, monitor.ModeHPMP)
	if pmpt <= pmp {
		t.Errorf("PMPT (%d) must cost more than PMP (%d)", pmpt, pmp)
	}
	if hpmp >= pmpt {
		t.Errorf("HPMP (%d) must cost less than PMPT (%d)", hpmp, pmpt)
	}
}
