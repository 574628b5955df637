package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/simcfg"
	"hpmp/internal/stats"
)

// fakeExp builds a trivial experiment that records nothing but produces a
// one-row table, optionally failing or panicking.
func fakeExp(id string, run func(cfg Config) (*Result, error)) Experiment {
	return Experiment{ID: id, Title: "fake " + id, Run: run}
}

func okRun(id string) func(cfg Config) (*Result, error) {
	return func(cfg Config) (*Result, error) {
		res := &Result{ID: id, Title: "ok"}
		t := stats.NewTable("t", "k", "v")
		t.AddRow(id, "1")
		res.Tables = append(res.Tables, t)
		return res, nil
	}
}

func TestRunAllIsolatesFailures(t *testing.T) {
	exps := []Experiment{
		fakeExp("a1", okRun("a1")),
		fakeExp("a2", func(cfg Config) (*Result, error) { return nil, errors.New("boom") }),
		fakeExp("a3", func(cfg Config) (*Result, error) { panic("kaboom") }),
		fakeExp("a4", func(cfg Config) (*Result, error) { return nil, nil }), // nil result, nil error
		fakeExp("a5", okRun("a5")),
	}
	var emitted []string
	outcomes := RunAll(context.Background(), DefaultConfig(), exps, RunOptions{Parallel: 4},
		func(o Outcome) { emitted = append(emitted, o.Experiment.ID) })

	if len(outcomes) != len(exps) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(exps))
	}
	wantStatus := []Status{StatusOK, StatusError, StatusPanic, StatusError, StatusOK}
	for i, o := range outcomes {
		if o.Status != wantStatus[i] {
			t.Errorf("%s: status %s, want %s (err=%v)", o.Experiment.ID, o.Status, wantStatus[i], o.Err)
		}
		if o.OK() != (o.Status == StatusOK) {
			t.Errorf("%s: OK() inconsistent with status", o.Experiment.ID)
		}
		if o.OK() && o.Result == nil {
			t.Errorf("%s: ok outcome without result", o.Experiment.ID)
		}
	}
	if !strings.Contains(outcomes[2].Err.Error(), "kaboom") {
		t.Errorf("panic message lost: %v", outcomes[2].Err)
	}
	want := []string{"a1", "a2", "a3", "a4", "a5"}
	if fmt.Sprint(emitted) != fmt.Sprint(want) {
		t.Errorf("emit order %v, want input order %v", emitted, want)
	}
}

// TestRunAllDeterministicAcrossParallelism runs the same experiment set
// sequentially and with a large worker pool; the rendered results must be
// byte-identical.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	var exps []Experiment
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("d%d", i)
		exps = append(exps, fakeExp(id, okRun(id)))
	}
	render := func(parallel int) string {
		var b strings.Builder
		RunAll(context.Background(), DefaultConfig(), exps, RunOptions{Parallel: parallel},
			func(o Outcome) {
				if o.OK() {
					b.WriteString(o.Result.Render())
				}
			})
		return b.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("output differs between -parallel 1 and -parallel 8:\nseq:\n%s\npar:\n%s", seq, par)
	}
	if !strings.Contains(seq, "d11") {
		t.Errorf("output missing experiments:\n%s", seq)
	}
}

func TestRunAllTimeout(t *testing.T) {
	exps := []Experiment{
		fakeExp("slow", func(cfg Config) (*Result, error) {
			time.Sleep(5 * time.Second)
			return okRun("slow")(cfg)
		}),
		fakeExp("fast", okRun("fast")),
	}
	start := time.Now()
	outcomes := RunAll(context.Background(), DefaultConfig(), exps,
		RunOptions{Parallel: 2, Timeout: 50 * time.Millisecond}, nil)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout did not bound the run (took %v)", elapsed)
	}
	if outcomes[0].Status != StatusTimeout {
		t.Errorf("slow: status %s, want %s", outcomes[0].Status, StatusTimeout)
	}
	if outcomes[1].Status != StatusOK {
		t.Errorf("fast: status %s, want %s (err=%v)", outcomes[1].Status, StatusOK, outcomes[1].Err)
	}
}

func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exps := []Experiment{fakeExp("c1", okRun("c1")), fakeExp("c2", okRun("c2"))}
	outcomes := RunAll(ctx, DefaultConfig(), exps, RunOptions{Parallel: 2}, nil)
	for _, o := range outcomes {
		if o.Status != StatusCanceled {
			t.Errorf("%s: status %s, want %s", o.Experiment.ID, o.Status, StatusCanceled)
		}
	}
}

// TestRunAllObservesCounters checks the runner's observability snapshot:
// an experiment that boots a real System gets its machine counters merged
// into Result.Counters, and wall time is recorded.
func TestRunAllObservesCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a simulated system")
	}
	exp := fakeExp("obs", func(cfg Config) (*Result, error) {
		sys, err := NewSystem(cpu.RocketPlatform(), AllModes[0], cfg)
		if err != nil {
			return nil, err
		}
		e, err := sys.NewEnv("obs", 1024)
		if err != nil {
			return nil, err
		}
		if err := e.Touch(e.P.Heap(), 4096); err != nil {
			return nil, err
		}
		res := &Result{ID: "obs", Title: "obs"}
		tb := stats.NewTable("t", "k")
		tb.AddRow("x")
		res.Tables = append(res.Tables, tb)
		return res, nil
	})
	outcomes := RunAll(context.Background(), DefaultConfig(), []Experiment{exp}, RunOptions{Parallel: 1}, nil)
	o := outcomes[0]
	if !o.OK() {
		t.Fatalf("experiment failed: %v", o.Err)
	}
	if o.Wall <= 0 {
		t.Errorf("wall time not recorded: %v", o.Wall)
	}
	if o.Result.Counters.Snapshot()["cpu.instructions"] == 0 || o.Result.Counters.Snapshot()["kernel.spawn"] == 0 {
		t.Errorf("counters not snapshotted: %s", o.Result.Counters.String())
	}
	csv := CountersCSV(o.Result)
	if !strings.Contains(csv, "cpu.instructions") {
		t.Errorf("CountersCSV missing counters:\n%s", csv)
	}
}

func TestSummaryNamesFailures(t *testing.T) {
	exps := []Experiment{
		fakeExp("s1", okRun("s1")),
		fakeExp("s2", func(cfg Config) (*Result, error) { return nil, errors.New("injected") }),
	}
	outcomes := RunAll(context.Background(), DefaultConfig(), exps, RunOptions{Parallel: 1}, nil)
	out := Summary(outcomes).Render()
	for _, want := range []string{"s1", "s2", "ok", "error", "injected"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestNaturalLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"fig3a", "fig10", true},
		{"fig10", "fig3a", false},
		{"fig3a", "fig3b", true},
		{"table3", "table4", true},
		{"fig9", "fig10", true},
		{"fig10", "fig10", false},
		{"ext-deep", "fig3a", true},
		{"fig12ab", "fig12c", true},
		{"fig12c", "fig12de", true},
		{"a02", "a2", false}, // same value: fewer leading zeros first
		{"a2", "a02", true},
	}
	for _, c := range cases {
		if got := naturalLess(c.a, c.b); got != c.want {
			t.Errorf("naturalLess(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestAllNaturalOrder pins the user-visible ordering bug: previews fig3a–d
// must come before fig10, and table3 directly before table4.
func TestAllNaturalOrder(t *testing.T) {
	ids := make([]string, 0)
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	orderings := [][2]string{
		{"fig3a", "fig10"}, {"fig3d", "fig10"}, {"fig9", "fig10"},
		{"fig10", "fig11a"}, {"fig12c", "fig12de"}, {"table3", "table4"},
	}
	for _, o := range orderings {
		pa, oka := pos[o[0]]
		pb, okb := pos[o[1]]
		if !oka || !okb {
			continue // not every pair is registered (e.g. fig9)
		}
		if pa >= pb {
			t.Errorf("All(): %s (pos %d) must precede %s (pos %d); full order: %v",
				o[0], pa, o[1], pb, ids)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate id", func() {
		Register(Experiment{ID: "fig10", Title: "dup", Run: okRun("fig10")})
	})
	mustPanic("malformed id", func() {
		Register(Experiment{ID: "Fig 10!", Title: "bad", Run: okRun("bad")})
	})
	mustPanic("empty id", func() {
		Register(Experiment{ID: "", Title: "bad", Run: okRun("bad")})
	})
	mustPanic("nil run", func() {
		Register(Experiment{ID: "zz-nilrun", Title: "bad"})
	})
	// Failed registrations must not have mutated the registry.
	if _, ok := ByID("zz-nilrun"); ok {
		t.Error("failed registration leaked into the registry")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config must validate: %v", err)
	}
	cfg.MemSize = 0
	if err := cfg.Validate(); err == nil {
		t.Error("MemSize 0 must be rejected")
	}
	cfg.MemSize = simcfg.MinMemSize - 1
	if err := cfg.Validate(); err == nil {
		t.Error("sub-minimum MemSize must be rejected")
	}
	cfg.MemSize = simcfg.MinMemSize
	if err := cfg.Validate(); err != nil {
		t.Errorf("MinMemSize must validate: %v", err)
	}
}

// TestObserverMergesSystemsInBootOrder pins the one registration point:
// every booted system — a TEE system, a Host-PMP system and a bare rig —
// lands in the observer once, and the snapshot merges them in boot order,
// each as machine, kernel, monitor counters and then histograms. The
// rendered counters keep first-use order, so the comparison is by string.
func TestObserverMergesSystemsInBootOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("boots simulated systems")
	}
	cfg := DefaultConfig()
	cfg.obs = &observer{}
	tee, err := NewSystem(cpu.RocketPlatform(), monitor.ModeHPMP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewHostSystem(cpu.BOOMPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := bareRig(cpu.RocketPlatform(), cfg.MemSize, cfg)
	for _, s := range []*System{tee, host} {
		e, err := s.NewEnv("obs", 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Touch(e.P.Heap(), 4*addr.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	all := addr.Range{Base: 0, Size: cfg.MemSize}
	if err := rig.Checker.SetSegment(0, all, perm.RWX, false); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Checker.Check(0x8000, 8, perm.Read, perm.S, 0); err != nil {
		t.Fatal(err)
	}

	var got stats.Counters
	gotHists := map[string]*stats.Histogram{}
	cfg.obs.snapshot(&got, gotHists)

	var want stats.Counters
	tee.Mach.MergeCounters(&want)
	want.Merge(&tee.Kern.Counters)
	want.Merge(&tee.Mon.Counters)
	host.Mach.MergeCounters(&want)
	want.Merge(&host.Kern.Counters)
	rig.MergeCounters(&want)
	if got.String() != want.String() {
		t.Errorf("snapshot counters differ from the boot-order hand merge:\n got %s\nwant %s", got.String(), want.String())
	}
	if s := got.Snapshot(); s["kernel.spawn"] != 2 || s["monitor.boot"] != 1 {
		t.Errorf("snapshot missed a kernel or monitor: %s", got.String())
	}

	wantHists := map[string]*stats.Histogram{}
	for _, m := range []*cpu.Machine{tee.Mach, host.Mach, rig} {
		m.EachHistogram(func(family string, h *stats.Histogram) { mergeHist(wantHists, family, h) })
	}
	if len(gotHists) != len(wantHists) {
		t.Fatalf("snapshot has %d histogram families, hand merge %d", len(gotHists), len(wantHists))
	}
	for family, w := range wantHists {
		if g, ok := gotHists[family]; !ok || !reflect.DeepEqual(g.Snapshot(), w.Snapshot()) {
			t.Errorf("histogram %s differs from the hand merge", family)
		}
	}
}

// TestBootIsNotTraced pins where the tracer attaches: after boot, so a
// traced run's events are the experiment's own accesses, never the
// monitor's or kernel's boot-time setup.
func TestBootIsNotTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a simulated system")
	}
	cfg := DefaultConfig()
	cfg.tracer = obs.NewTracer(0, 1)
	sys, err := NewSystem(cpu.RocketPlatform(), monitor.ModeHPMP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.tracer.Seen(); n != 0 {
		t.Fatalf("tracer saw %d events during boot, want 0", n)
	}
	e, err := sys.NewEnv("traced", 64)
	if err != nil {
		t.Fatal(err)
	}
	e.Store64(e.P.Heap(), 1)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if cfg.tracer.Seen() == 0 {
		t.Fatal("tracer not attached: the first access emitted nothing")
	}
}
