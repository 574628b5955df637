package bench

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"hpmp/internal/cpu"
	"hpmp/internal/stats"
)

// This file is the run memo. Several experiments simulate the same
// machines: the Fig. 3 previews are views over the evaluation figures'
// runs (fig3a over fig10, fig3b over fig11bc, fig3c over fig12ab, fig3d
// over fig12de) and fig17's 8-entry-PWC half is fig12ab's Rocket run. The
// simulator is deterministic, so one RunAll computes each shared unit once
// and every consumer reads the same result. The memo lives for one RunAll
// call — one CLI run or one daemon job — and is never shared across runs.

// memoKey identifies one unit: what one collector simulates for one
// platform and one label. The run's Config fixes the experiment size,
// memory size and workload scale for the memo's whole life, so the key
// leaves them out. The medium and heavy
// experiments make each freshly booted system its own unit, so the label
// names everything that system's run depends on beyond the platform (an
// isolation label, and the workload, size or variant it runs). A GAP or
// RV8 unit is the exception: it runs one workload on the PMP, PMPT and
// HPMP systems in lockstep, so its label is the workload alone. Every
// field is comparable, so the key is its own map key; the platform is the
// effective one, after any override, so fig17's explicit 8-entry PWC lands
// on fig12ab's default-platform key.
type memoKey struct {
	collector string
	plat      cpu.Platform
	label     string
}

// String names the unit in host profiles (the memo pprof label).
func (k memoKey) String() string {
	return fmt.Sprintf("%s/%s/pwc%d/%s", k.collector, k.plat.Core.Name, k.plat.MMU.PWCEntries, k.label)
}

// memoEntry is one unit, computed once. done closes when val/err and the
// frozen counter and histogram snapshot of the unit's systems are final;
// after that every field is read-only, and so is the value val points to.
type memoEntry struct {
	done   chan struct{}
	val    any
	err    error
	frozen frozen
}

// frozen is the merged counters and histograms of a finished set of
// systems, ready to merge into any number of experiments' snapshots.
type frozen struct {
	counters stats.Counters
	hists    map[string]*stats.Histogram
}

// runMemo is the singleflight table of one RunAll call. A nil memo
// computes every unit in place.
type runMemo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
}

// memoOff is the test-only switch that makes RunAll run without a memo,
// so tests can compare shared and unshared runs.
var memoOff atomic.Bool

// newRunMemo returns the memo for one RunAll call, or nil when tests have
// switched it off.
func newRunMemo() *runMemo {
	if memoOff.Load() {
		return nil
	}
	return &runMemo{entries: make(map[memoKey]*memoEntry)}
}

// unit is one run-memo unit a collector needs: the key that names it and
// the computation that produces it.
type unit[T any] struct {
	key     memoKey
	compute func(Config) (T, error)
}

// sharedUnits returns the values of a collector's units, in order,
// computing each unit at most once per run. Under the memo lock it claims
// the units no other caller has claimed yet and computes them on a bounded
// pool: min(claims, max(2, GOMAXPROCS)) workers, the caller one of them,
// pull the claims in collector order and compute each under a fresh
// observer and a memo=<key> pprof label. Units another caller claimed are
// that caller's to compute. It then waits for the units in collector
// order, merging each unit's frozen snapshot into the caller's observer
// where its systems would have registered and stopping at the first unit
// that failed. So the values, the counters (values and first-use order),
// the histograms and the error are the ones the collector would get
// computing its units one after another. Callers must treat the values as
// read-only.
//
// A worker checks the run's context before it starts each unit: once the
// run is canceled, every unit not yet started records the context's error
// instead of computing. A unit already computing runs to its end, which
// the entry's waiters wait for; like a timed-out experiment's goroutine,
// it is abandoned, not interrupted.
//
// A traced run, and a run without a memo, computes the units in place and
// in order: an experiment's trace must hold its own accesses, in the order
// a sequential run makes them.
func sharedUnits[T any](cfg Config, units []unit[T]) ([]T, error) {
	vals := make([]T, len(units))
	m := cfg.memo
	if m == nil || cfg.tracer != nil {
		for i, u := range units {
			v, err := u.compute(cfg)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vals, nil
	}
	entries := make([]*memoEntry, len(units))
	var claimed []int
	m.mu.Lock()
	for i, u := range units {
		e, found := m.entries[u.key]
		if !found {
			e = &memoEntry{done: make(chan struct{})}
			m.entries[u.key] = e
			claimed = append(claimed, i)
		}
		entries[i] = e
	}
	m.mu.Unlock()

	var next atomic.Int64
	work := func() {
		for n := next.Add(1) - 1; n < int64(len(claimed)); n = next.Add(1) - 1 {
			u, e := units[claimed[n]], entries[claimed[n]]
			if err := cfg.ctx.Err(); err != nil {
				e.err = err
				close(e.done)
				continue
			}
			e.fill(cfg, u.key, func(c Config) (any, error) { return u.compute(c) })
		}
	}
	for w := 1; w < min(len(claimed), max(2, runtime.GOMAXPROCS(0))); w++ {
		go work()
	}
	work()
	for i, e := range entries {
		select {
		case <-e.done:
		case <-cfg.ctx.Done():
			return nil, cfg.ctx.Err()
		}
		cfg.obs.add(&e.frozen)
		if e.err != nil {
			return nil, e.err
		}
		vals[i] = e.val.(T)
	}
	return vals, nil
}

// fill computes the entry and closes done, whatever compute does: a panic
// becomes the entry's error, so every waiter gets an error outcome instead
// of waiting forever.
func (e *memoEntry) fill(cfg Config, key memoKey, compute func(Config) (any, error)) {
	defer close(e.done)
	defer func() {
		if p := recover(); p != nil {
			e.err = &panicError{val: p, stack: debug.Stack()}
		}
	}()
	ob := &observer{}
	cfg.obs = ob
	pprof.Do(cfg.ctx, pprof.Labels("memo", key.String()), func(ctx context.Context) {
		cfg.ctx = ctx
		e.val, e.err = compute(cfg)
	})
	e.frozen.hists = make(map[string]*stats.Histogram)
	ob.snapshot(&e.frozen.counters, e.frozen.hists)
}
