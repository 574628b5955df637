package bench

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"hpmp/internal/cpu"
	"hpmp/internal/simcfg"
	"hpmp/internal/stats"
)

// This file is the run memo. Several experiments simulate the same
// machines: the Fig. 3 previews are views over the evaluation figures'
// runs (fig3a over fig10, fig3b over fig11bc, fig3c over fig12ab, fig3d
// over fig12de) and fig17's 8-entry-PWC half is fig12ab's Rocket run. The
// simulator is deterministic, so one RunAll computes each shared unit once
// and every consumer reads the same result. The memo lives for one RunAll
// call — one CLI run or one daemon job — and is never shared across runs.

// memoKey identifies one shared unit: the systems one collector boots for
// one platform and one isolation label, at one experiment size. Every
// field is comparable, so the key is its own map key; the platform is the
// effective one, after any override, so fig17's explicit 8-entry PWC lands
// on fig12ab's default-platform key.
type memoKey struct {
	collector string
	plat      cpu.Platform
	label     string
	quick     bool
	memSize   uint64
	workload  simcfg.WorkloadScale
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

// shared returns the value of the unit key names, computing it with
// compute at most once per run. The first caller computes it, under a
// fresh observer and a memo=<key> pprof label; later callers, concurrent
// or not, wait for that computation and get the same value and error.
// Either way the unit's frozen snapshot joins the caller's observer where
// its systems would have registered, so each experiment's counters and
// histograms are the ones it would have collected alone. Callers must
// treat the value as read-only.
//
// A traced run bypasses the memo: an experiment's trace must hold its own
// accesses, so it simulates everything it consumes.
func shared[T any](cfg Config, key memoKey, compute func(Config) (T, error)) (T, error) {
	m := cfg.memo
	if m == nil || cfg.tracer != nil {
		return compute(cfg)
	}
	key.quick, key.memSize, key.workload = cfg.Quick, cfg.MemSize, cfg.Workload
	m.mu.Lock()
	e, found := m.entries[key]
	if !found {
		e = &memoEntry{done: make(chan struct{})}
		m.entries[key] = e
	}
	m.mu.Unlock()

	var zero T
	if !found {
		e.fill(cfg, key, func(c Config) (any, error) { return compute(c) })
	}
	select {
	case <-e.done:
	case <-cfg.ctx.Done():
		return zero, cfg.ctx.Err()
	}
	cfg.obs.add(&e.frozen)
	if e.err != nil {
		return zero, e.err
	}
	return e.val.(T), nil
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
