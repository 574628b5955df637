package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
	"hpmp/internal/workloads"
)

// shared is the one-unit form of sharedUnits, for the memo tests that
// consume a single unit.
func shared[T any](cfg Config, key memoKey, compute func(Config) (T, error)) (T, error) {
	vals, err := sharedUnits(cfg, []unit[T]{{key, compute}})
	if err != nil {
		var zero T
		return zero, err
	}
	return vals[0], nil
}

// TestSharedUnitsOverlap: a collector's units run concurrently, even in a
// one-worker run. Each unit blocks until its sibling has started, so units
// computed one after another would fail on the deadline instead.
func TestSharedUnitsOverlap(t *testing.T) {
	started := []chan struct{}{make(chan struct{}), make(chan struct{})}
	compute := func(self, sibling int) func(Config) (int, error) {
		return func(Config) (int, error) {
			close(started[self])
			select {
			case <-started[sibling]:
				return self, nil
			case <-time.After(5 * time.Second):
				return 0, fmt.Errorf("unit %d: its sibling never started while it ran", self)
			}
		}
	}
	exp := fakeExp("o-overlap", func(cfg Config) (*Result, error) {
		vals, err := sharedUnits(cfg, []unit[int]{
			{memoKey{collector: "test-overlap", label: "a"}, compute(0, 1)},
			{memoKey{collector: "test-overlap", label: "b"}, compute(1, 0)},
		})
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(vals, []int{0, 1}) {
			return nil, fmt.Errorf("values %v, want [0 1] in collector order", vals)
		}
		return okRun("o-overlap")(cfg)
	})
	if o := RunAll(context.Background(), DefaultConfig(), []Experiment{exp}, RunOptions{Parallel: 1}, nil)[0]; !o.OK() {
		t.Fatalf("%s: %v", o.Status, o.Err)
	}
}

// poolSize is the number of units one sharedUnits call computes at once.
func poolSize() int { return max(2, runtime.GOMAXPROCS(0)) }

// TestSharedUnitsPoolIsBounded: one call with 8 units computes at most
// max(2, GOMAXPROCS) of them at once and starts them in collector order.
// Every unit holds until the test releases it, and the test releases them
// in order, so each release frees exactly one worker, which must start the
// next unit in collector order.
func TestSharedUnitsPoolIsBounded(t *testing.T) {
	const n = 8
	pool := min(n, poolSize())
	started := make(chan int, n)
	release := make([]chan struct{}, n)
	for i := range release {
		release[i] = make(chan struct{})
	}
	var running, peak atomic.Int32
	var units []unit[int]
	for i := 0; i < n; i++ {
		units = append(units, unit[int]{memoKey{collector: "test-pool", label: fmt.Sprint(i)}, func(Config) (int, error) {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			started <- i
			<-release[i]
			running.Add(-1)
			return i, nil
		}})
	}
	exp := fakeExp("p-pool", func(cfg Config) (*Result, error) {
		vals, err := sharedUnits(cfg, units)
		if err != nil {
			return nil, err
		}
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(vals, want) {
			return nil, fmt.Errorf("values %v, want %v in collector order", vals, want)
		}
		return okRun("p-pool")(cfg)
	})
	outcome := make(chan Outcome, 1)
	go func() {
		outcome <- RunAll(context.Background(), DefaultConfig(), []Experiment{exp}, RunOptions{Parallel: 1}, nil)[0]
	}()
	next := func() int {
		select {
		case i := <-started:
			return i
		case <-time.After(5 * time.Second):
			t.Fatal("no unit started within 5s")
			return -1
		}
	}
	first := map[int]bool{}
	for len(first) < pool {
		first[next()] = true
	}
	for i := 0; i < pool; i++ {
		if !first[i] {
			t.Fatalf("first %d units to start were %v, want units 0..%d", pool, first, pool-1)
		}
	}
	for i := 0; i < n; i++ {
		close(release[i])
		if i+pool < n {
			if got := next(); got != i+pool {
				t.Fatalf("releasing unit %d started unit %d, want %d", i, got, i+pool)
			}
		}
	}
	if o := <-outcome; !o.OK() {
		t.Fatalf("%s: %v", o.Status, o.Err)
	}
	if got := peak.Load(); got > int32(pool) {
		t.Errorf("%d units computed at once, want at most %d", got, pool)
	}
}

// TestSharedUnitsCancelStopsQueuedWork: once the run is canceled, a unit
// no worker has started yet never computes. The pool's first units hold
// until the cancel; the rest are queued behind them, and when a worker
// frees up it finds the run canceled. The experiment reports
// StatusCanceled.
func TestSharedUnitsCancelStopsQueuedWork(t *testing.T) {
	pool := poolSize()
	n := pool + 4
	var computed sync.Map
	started := make(chan struct{}, n)
	var holding sync.WaitGroup
	holding.Add(pool)
	var units []unit[int]
	for i := 0; i < n; i++ {
		units = append(units, unit[int]{memoKey{collector: "test-cancel-queue", label: fmt.Sprint(i)}, func(cfg Config) (int, error) {
			computed.Store(i, true)
			started <- struct{}{}
			if i < pool {
				defer holding.Done()
				<-cfg.ctx.Done()
			}
			return i, nil
		}})
	}
	returned := make(chan error, 1)
	exp := fakeExp("q-cancel", func(cfg Config) (*Result, error) {
		_, err := sharedUnits(cfg, units)
		returned <- err
		if err != nil {
			return nil, err
		}
		return okRun("q-cancel")(cfg)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outcome := make(chan Outcome, 1)
	go func() {
		outcome <- RunAll(ctx, DefaultConfig(), []Experiment{exp}, RunOptions{Parallel: 1}, nil)[0]
	}()
	for i := 0; i < pool; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of the pool's %d units started", i, pool)
		}
	}
	cancel()
	if o := <-outcome; o.Status != StatusCanceled {
		t.Errorf("status %s (%v), want %s", o.Status, o.Err, StatusCanceled)
	}
	holding.Wait()
	select {
	case err := <-returned:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("sharedUnits returned %v, want %v", err, context.Canceled)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sharedUnits did not return after the cancel")
	}
	for i := pool; i < n; i++ {
		if _, ok := computed.Load(i); ok {
			t.Errorf("unit %d was queued at the cancel but computed", i)
		}
	}
}

// TestSharedUnitsReportFirstErrorInOrder: when two units of one collector
// fail and the second fails first, the experiment reports the first
// unit's error — the error a memo-off run, which computes the units in
// order and stops at the first failure, reports.
func TestSharedUnitsReportFirstErrorInOrder(t *testing.T) {
	errFirst, errSecond := errors.New("first unit failed"), errors.New("second unit failed")
	var mu sync.Mutex
	var finished []string
	finish := func(label string, err error) (int, error) {
		mu.Lock()
		finished = append(finished, label)
		mu.Unlock()
		return 0, err
	}
	// takeFinished returns and clears the finish order.
	takeFinished := func() []string {
		mu.Lock()
		defer mu.Unlock()
		f := finished
		finished = nil
		return f
	}
	// secondDone closes when the second unit has failed; the first unit
	// waits for it, so the two finish in reverse collector order.
	exp := func(secondDone chan struct{}) Experiment {
		return fakeExp("e-order", func(cfg Config) (*Result, error) {
			_, err := sharedUnits(cfg, []unit[int]{
				{memoKey{collector: "test-order", label: "first"}, func(Config) (int, error) {
					select {
					case <-secondDone:
					case <-time.After(5 * time.Second):
					}
					return finish("first", errFirst)
				}},
				{memoKey{collector: "test-order", label: "second"}, func(Config) (int, error) {
					defer close(secondDone)
					return finish("second", errSecond)
				}},
			})
			if err != nil {
				return nil, err
			}
			return okRun("e-order")(cfg)
		})
	}

	// Memo off, the second unit never runs: the first one fails first.
	closed := make(chan struct{})
	close(closed)
	off := runUnshared(DefaultConfig(), []Experiment{exp(closed)}, RunOptions{Parallel: 1})[0]
	if got, want := takeFinished(), []string{"first"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("memo off: units finished %v, want %v", got, want)
	}

	on := RunAll(context.Background(), DefaultConfig(), []Experiment{exp(make(chan struct{}))}, RunOptions{Parallel: 1}, nil)[0]
	if got, want := takeFinished(), []string{"second", "first"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("memo on: units finished %v, want %v", got, want)
	}
	for _, o := range []Outcome{off, on} {
		if o.Status != StatusError || !errors.Is(o.Err, errFirst) {
			t.Errorf("status %s, err %v; want %s wrapping %q", o.Status, o.Err, StatusError, errFirst)
		}
	}
	if off.Err != nil && on.Err != nil && on.Err.Error() != off.Err.Error() {
		t.Errorf("memo on reports %q, memo off %q", on.Err, off.Err)
	}
}

// TestSuiteValuesAreShareable: a collector hands one suite value to all of
// its units, which run concurrently, so a workload's Run must keep its
// per-run state off the receiver. Each suite value runs on two systems at
// once and must give the cycles of running on them one after another. It
// is the regression test for Linpack, which kept its interpreter on the
// receiver: the race detector flags it, and without it the two runs
// corrupted each other's interpreter state.
func TestSuiteValuesAreShareable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick FunctionBench, GAP and RV8 suites four times")
	}
	cfg := quickConfig()
	plat := cpu.RocketPlatform()
	modes := []monitor.Mode{monitor.ModePMP, monitor.ModeHPMP}
	// runMode runs the whole suite under one mode, one system per workload.
	runMode := func(mode monitor.Mode, suite []workloads.Workload) (map[string]uint64, error) {
		out := map[string]uint64{}
		for _, w := range suite {
			c, _, err := runAlone(plat, mode, w, cfg)
			if err != nil {
				return nil, err
			}
			out[w.Name()] = c
		}
		return out, nil
	}
	for _, tc := range []struct {
		name  string
		suite []workloads.Workload
	}{
		{"funcbench", funcBenchForConfig(cfg)},
		{"gap", workloads.GAPSuite(gapScale(cfg))},
		{"rv8", rv8ForConfig(cfg)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]map[string]uint64, len(modes))
			for i, mode := range modes {
				cycles, err := runMode(mode, tc.suite)
				if err != nil {
					t.Fatalf("sequential %v: %v", mode, err)
				}
				want[i] = cycles
			}
			got := make([]map[string]uint64, len(modes))
			errs := make([]error, len(modes))
			var wg sync.WaitGroup
			for i, mode := range modes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = runMode(mode, tc.suite)
				}()
			}
			wg.Wait()
			for i, mode := range modes {
				if errs[i] != nil {
					t.Errorf("concurrent %v: %v", mode, errs[i])
				} else if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("concurrent %v: cycles %v, want %v", mode, got[i], want[i])
				}
			}
		})
	}
}
