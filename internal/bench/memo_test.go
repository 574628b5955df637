package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/stats"
)

// quickConfig is the quick-size configuration CI and daemon tenants run.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Quick = true
	return cfg
}

// runUnshared runs exps with the run memo switched off, so every
// experiment simulates everything it consumes.
func runUnshared(cfg Config, exps []Experiment, opts RunOptions) []Outcome {
	memoOff.Store(true)
	defer memoOff.Store(false)
	return RunAll(context.Background(), cfg, exps, opts, nil)
}

var (
	unsharedOnce sync.Once
	unsharedRun  map[string]Outcome
)

// unsharedQuickRun is one sequential, memo-off quick run of every
// registered experiment, shared by the tests that compare against it.
func unsharedQuickRun(t *testing.T) map[string]Outcome {
	t.Helper()
	unsharedOnce.Do(func() {
		unsharedRun = map[string]Outcome{}
		for _, o := range runUnshared(quickConfig(), All(), RunOptions{Parallel: 1}) {
			unsharedRun[o.Experiment.ID] = o
		}
	})
	for id, o := range unsharedRun {
		if !o.OK() {
			t.Fatalf("%s (memo off): %s: %v", id, o.Status, o.Err)
		}
	}
	return unsharedRun
}

// TestMemoMatchesUnsharedRun is the memo's equivalence gate: with the memo
// on, at one worker and at four, every experiment renders the same bytes
// and snapshots the same counters (values and first-use order) and
// histograms as when it simulates everything itself.
func TestMemoMatchesUnsharedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick evaluation three times")
	}
	ref := unsharedQuickRun(t)
	for _, parallel := range []int{1, 4} {
		outs := RunAll(context.Background(), quickConfig(), All(), RunOptions{Parallel: parallel}, nil)
		if len(outs) != len(ref) {
			t.Fatalf("parallel %d: %d outcomes, want %d", parallel, len(outs), len(ref))
		}
		for _, o := range outs {
			id := o.Experiment.ID
			if !o.OK() {
				t.Errorf("parallel %d: %s: %s: %v", parallel, id, o.Status, o.Err)
				continue
			}
			want := ref[id].Result
			if got := o.Result.Render(); got != want.Render() {
				t.Errorf("parallel %d: %s renders differently with the memo on:\n%s\nwant:\n%s", parallel, id, got, want.Render())
			}
			if got := o.Result.Counters.String(); got != want.Counters.String() {
				t.Errorf("parallel %d: %s counters differ with the memo on:\n got %s\nwant %s", parallel, id, got, want.Counters.String())
			}
			if !sameHists(o.Result.Hists, want.Hists) {
				t.Errorf("parallel %d: %s histograms differ with the memo on", parallel, id)
			}
		}
	}
}

func sameHists(a, b map[string]*stats.Histogram) bool {
	if len(a) != len(b) {
		return false
	}
	for family, h := range a {
		o, ok := b[family]
		if !ok || !reflect.DeepEqual(h.Snapshot(), o.Snapshot()) {
			return false
		}
	}
	return true
}

// countingExp is an experiment that consumes the unit key through the memo
// and counts how often the unit is actually computed.
func countingExp(id string, key memoKey, computes *atomic.Int32) Experiment {
	return fakeExp(id, func(cfg Config) (*Result, error) {
		if _, err := shared(cfg, key, func(Config) (int, error) {
			computes.Add(1)
			return 42, nil
		}); err != nil {
			return nil, err
		}
		return okRun(id)(cfg)
	})
}

// TestMemoIsScopedToOneRun pins the memo's lifetime: consumers in one
// RunAll share one computation, and a second RunAll — the next CLI run or
// daemon job — computes its own.
func TestMemoIsScopedToOneRun(t *testing.T) {
	var computes atomic.Int32
	key := memoKey{collector: "test-scope"}
	exps := []Experiment{countingExp("m1", key, &computes), countingExp("m2", key, &computes)}
	for run := 1; run <= 2; run++ {
		for _, o := range RunAll(context.Background(), DefaultConfig(), exps, RunOptions{Parallel: 2}, nil) {
			if !o.OK() {
				t.Fatalf("run %d: %s: %v", run, o.Experiment.ID, o.Err)
			}
		}
		if got := computes.Load(); got != int32(run) {
			t.Fatalf("after run %d the unit was computed %d times, want %d", run, got, run)
		}
	}
	computes.Store(0)
	runUnshared(DefaultConfig(), exps, RunOptions{Parallel: 1})
	if got := computes.Load(); got != 2 {
		t.Errorf("memo off: unit computed %d times, want once per consumer (2)", got)
	}
}

// TestMemoFailureReachesEveryConsumer: when a unit's computation panics or
// errors, every experiment consuming it — the one computing it and the
// ones waiting for it — gets an error outcome, the unit is computed once,
// and nobody hangs.
func TestMemoFailureReachesEveryConsumer(t *testing.T) {
	const consumers = 4
	for _, tc := range []struct {
		name string
		fail func() (int, error)
		want Status
	}{
		{"panic", func() (int, error) { panic("unit exploded") }, StatusPanic},
		{"error", func() (int, error) { return 0, errors.New("unit failed") }, StatusError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var entered, computes atomic.Int32
			key := memoKey{collector: "test-fail-" + tc.name}
			var exps []Experiment
			for i := 0; i < consumers; i++ {
				id := fmt.Sprintf("f%d", i)
				exps = append(exps, fakeExp(id, func(cfg Config) (*Result, error) {
					entered.Add(1)
					_, err := shared(cfg, key, func(Config) (int, error) {
						computes.Add(1)
						// Hold the unit in flight until every consumer has
						// asked for it, so the others really wait.
						for deadline := time.Now().Add(2 * time.Second); entered.Load() < consumers && time.Now().Before(deadline); {
							time.Sleep(time.Millisecond)
						}
						time.Sleep(10 * time.Millisecond)
						return tc.fail()
					})
					if err != nil {
						return nil, err
					}
					return okRun(id)(cfg)
				}))
			}
			done := make(chan []Outcome, 1)
			go func() {
				done <- RunAll(context.Background(), DefaultConfig(), exps, RunOptions{Parallel: consumers}, nil)
			}()
			var outs []Outcome
			select {
			case outs = <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("consumers of a failed unit hung")
			}
			for _, o := range outs {
				if o.Status != tc.want {
					t.Errorf("%s: status %s, want %s (err=%v)", o.Experiment.ID, o.Status, tc.want, o.Err)
				}
			}
			if n := computes.Load(); n != 1 {
				t.Errorf("failing unit computed %d times, want 1", n)
			}
		})
	}
}

// TestTracedRunBypassesMemo: with tracing on, fig3b runs after fig11bc has
// simulated the same BOOM GAP systems, yet fig3b's trace holds its own
// accesses — exactly the events of fig3b traced alone.
func TestTracedRunBypassesMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs GAP at quick size")
	}
	fig3b, _ := ByID("fig3b")
	fig11bc, _ := ByID("fig11bc")
	opts := RunOptions{Parallel: 1, TraceEvery: 97, TraceKeep: 64}
	solo := RunAll(context.Background(), quickConfig(), []Experiment{fig3b}, opts, nil)[0]
	outs := RunAll(context.Background(), quickConfig(), []Experiment{fig11bc, fig3b}, opts, nil)
	for _, o := range append(outs, solo) {
		if !o.OK() {
			t.Fatalf("%s: %s: %v", o.Experiment.ID, o.Status, o.Err)
		}
	}
	got := outs[1].Trace
	accesses := 0
	got.Each(func(ev obs.Event) bool {
		if ev.Kind == obs.KindAccess {
			accesses++
		}
		return true
	})
	if accesses == 0 {
		t.Fatal("fig3b's trace holds no access events of its own")
	}
	if got.Seen() != solo.Trace.Seen() || !reflect.DeepEqual(got.Events(), solo.Trace.Events()) {
		t.Errorf("fig3b after fig11bc traced %d events, alone %d: the trace is not its own", got.Seen(), solo.Trace.Seen())
	}
}

// TestProfileLabels: host profiles split by experiment and by memo unit.
// A goroutine dump taken inside an experiment carries its experiment
// label, and one taken inside a unit's computation also carries the unit's
// memo label.
func TestProfileLabels(t *testing.T) {
	dump := func() string {
		var b bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
			t.Error(err)
		}
		return b.String()
	}
	key := memoKey{collector: "test-label", plat: cpu.RocketPlatform(), label: "PL-HPMP"}
	var inExp, inUnit string
	exp := fakeExp("zz-labels", func(cfg Config) (*Result, error) {
		inExp = dump()
		if _, err := shared(cfg, key, func(Config) (int, error) {
			inUnit = dump()
			return 0, nil
		}); err != nil {
			return nil, err
		}
		return okRun("zz-labels")(cfg)
	})
	if o := RunAll(context.Background(), DefaultConfig(), []Experiment{exp}, RunOptions{Parallel: 1}, nil)[0]; !o.OK() {
		t.Fatalf("%s: %v", o.Status, o.Err)
	}
	expLabel := `"experiment":"zz-labels"`
	memoLabel := fmt.Sprintf(`"memo":%q`, key.String())
	if !strings.Contains(inExp, expLabel) {
		t.Errorf("goroutine profile inside the experiment lacks %s", expLabel)
	}
	if !strings.Contains(inUnit, memoLabel) {
		t.Errorf("goroutine profile inside the memo unit lacks %s", memoLabel)
	}
	for _, line := range strings.Split(inUnit, "\n") {
		if strings.Contains(line, memoLabel) && !strings.Contains(line, expLabel) {
			t.Errorf("memo unit lost its experiment label: %s", line)
		}
	}
}

// TestFig10TraceStartsWithRocket is the regression test for fig10's trace
// order: CollectFig10 used to range over a map of platforms, so about one
// traced run in eight simulated BOOM first and recorded a different trace.
// The trace must begin with the Rocket machine's first probe (ld under
// PMP, everything cold), whose walk differs from BOOM's. Each round is one
// cheap fig10 pass; the repetition only makes the old map order show
// within the test, the assertion itself is exact.
func TestFig10TraceStartsWithRocket(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig10 repeatedly")
	}
	probeTrace := func(plat cpu.Platform) []obs.Event {
		cfg := quickConfig()
		cfg.tracer = obs.NewTracer(1<<12, 1)
		if _, err := latencyProbe(plat, monitor.ModePMP, TC1, false, cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.tracer.Events()
	}
	rocket, boom := probeTrace(cpu.RocketPlatform()), probeTrace(cpu.BOOMPlatform())
	if reflect.DeepEqual(rocket, boom) {
		t.Fatal("Rocket and BOOM probes trace identically; the test cannot tell them apart")
	}
	for round := 0; round < 40; round++ {
		cfg := quickConfig()
		cfg.tracer = obs.NewTracer(1<<16, 1)
		if _, err := CollectFig10(cfg); err != nil {
			t.Fatal(err)
		}
		events := cfg.tracer.Events()
		if len(events) < len(rocket) || !reflect.DeepEqual(events[:len(rocket)], rocket) {
			t.Fatalf("round %d: fig10's trace does not begin with the Rocket probe", round)
		}
	}
}

// TestMemoWaitReturnsOnCancel: an experiment waiting for a unit another
// experiment is still computing returns as soon as the run is canceled,
// instead of staying blocked behind the computation.
func TestMemoWaitReturnsOnCancel(t *testing.T) {
	key := memoKey{collector: "test-cancel"}
	release := make(chan struct{})
	computing := make(chan struct{})
	waited := make(chan error, 1)
	leader := fakeExp("c-leader", func(cfg Config) (*Result, error) {
		if _, err := shared(cfg, key, func(Config) (int, error) {
			close(computing)
			<-release
			return 0, nil
		}); err != nil {
			return nil, err
		}
		return okRun("c-leader")(cfg)
	})
	waiter := fakeExp("c-waiter", func(cfg Config) (*Result, error) {
		<-computing
		_, err := shared(cfg, key, func(Config) (int, error) { return 0, nil })
		waited <- err
		return okRun("c-waiter")(cfg)
	})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-computing
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	RunAll(ctx, DefaultConfig(), []Experiment{leader, waiter}, RunOptions{Parallel: 2}, nil)
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting experiment stayed blocked after cancel")
	}
}
