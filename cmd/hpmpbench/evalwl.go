package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hpmp/internal/bench"
	"hpmp/internal/cpu"
	"hpmp/internal/obs"
)

// evalConfig is the configuration every eval-quick pass runs: the paper's
// experiments at the quick sizes CI and daemon tenants use.
func evalConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Quick = true
	return cfg
}

// resolveExperiments returns the experiments named by ids, or the whole
// registry in its natural order when ids is nil.
func resolveExperiments(ids []string) ([]bench.Experiment, error) {
	if ids == nil {
		return bench.All(), nil
	}
	exps := make([]bench.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := bench.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// bootSystems is eval-quick's set-up: one booted system (machine, monitor,
// kernel) of each platform under each isolation mode plus the unprotected
// host, which is what every experiment builds before its first access.
func bootSystems(cfg bench.Config) error {
	for _, plat := range []cpu.Platform{cpu.RocketPlatform(), cpu.BOOMPlatform()} {
		for _, mode := range bench.AllModes {
			if _, err := bench.NewSystem(plat, mode, cfg); err != nil {
				return err
			}
		}
		if _, err := bench.NewHostSystem(plat, cfg); err != nil {
			return err
		}
	}
	return nil
}

// runEval runs quick-size passes over the experiments, each pass in an
// order drawn from the seed, until the window closes. One operation is a
// whole pass: latency_ms sums each experiment's fastest wall time, tail_ms
// is the slowest experiment's (the critical path a parallel run cannot
// beat), and every result must match the committed digests.
func runEval(o options, spans *spanLog) (*report, error) {
	exps, err := resolveExperiments(o.size.evalIDs)
	if err != nil {
		return nil, err
	}
	cfg := evalConfig()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var setups setupClock
	boot := func() error { return bootSystems(cfg) }
	if err := setups.time(boot); err != nil {
		return nil, err
	}

	rep := newReport()
	rng := newRNG(o.seed)
	walls := map[string][]float64{}
	var accesses uint64
	passes := 0
	root := spans.begin("workload", 0, "eval-quick")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(o.window)
	for passes == 0 || time.Now().Before(deadline) {
		order := append([]bench.Experiment(nil), exps...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		pass := spans.begin("pass", root, fmt.Sprintf("pass-%d", passes))
		opts := bench.RunOptions{Parallel: 1}
		if spans != nil {
			opts.Progress = func(_, _ int, out bench.Outcome) {
				end := time.Now()
				spans.add("experiment", pass, out.Experiment.ID, end.Add(-out.Wall), end)
			}
		}
		outs := bench.RunAll(context.Background(), cfg, order, opts, nil)
		spans.end(pass)

		passCounts := map[string]uint64{}
		for _, out := range outs {
			id := out.Experiment.ID
			rep.attempted++
			walls[id] = append(walls[id], out.Wall.Seconds())
			if !out.OK() {
				rep.fail("%s: %s: %v", id, out.Status, out.Err)
				continue
			}
			addCounts(passCounts, out.Result.Counters.Snapshot())
			want, ok := o.digests.Eval[id]
			switch {
			case !ok:
				rep.fail("%s: no committed digest", id)
			case resultDigest(out.Result) != want:
				rep.fail("%s: result differs from the committed digest", id)
			}
		}
		if rep.counts == nil {
			rep.counts = passCounts
			accesses = mmuAccesses(passCounts)
		}
		passes++
		if err := setups.time(boot); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	spans.end(root)

	var latency, critical float64
	critID := ""
	for _, e := range exps {
		m := fastest(walls[e.ID])
		latency += m
		rep.extra["bench.exp_ms."+e.ID] = m * 1e3
		if m > critical {
			critical, critID = m, e.ID
		}
	}
	rep.metrics = map[string]float64{
		"latency_ms":    latency * 1e3,
		"tail_ms":       critical * 1e3,
		"ns_per_access": ratio(latency*1e9, float64(accesses)),
		"alloc_mib":     float64(m1.TotalAlloc-m0.TotalAlloc) / float64(passes) / (1 << 20),
		"setup_s":       fastest(setups),
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d passes over %d experiments (quick size); latency_ms = sum of per-experiment fastest walls", passes, len(exps)),
		fmt.Sprintf("tail_ms = critical path: %s's fastest wall time", critID))
	return rep, nil
}

// evalSample captures eval-quick's access sample: every 61st translation
// event of one quick pass, at most 2048 kept per experiment.
func evalSample(o options) ([]obs.Event, error) {
	exps, err := resolveExperiments(o.size.evalIDs)
	if err != nil {
		return nil, err
	}
	return accessSample(exps, 61, 2048)
}

// accessSample runs exps once at quick size with tracing on, sampling
// every every-th translation event and keeping at most keep per
// experiment, and returns the access events.
func accessSample(exps []bench.Experiment, every, keep int) ([]obs.Event, error) {
	var events []obs.Event
	for _, out := range bench.RunAll(context.Background(), evalConfig(), exps,
		bench.RunOptions{Parallel: 1, TraceEvery: every, TraceKeep: keep}, nil) {
		if !out.OK() {
			return nil, fmt.Errorf("%s: %v", out.Experiment.ID, out.Err)
		}
		out.Trace.Each(func(ev obs.Event) bool {
			if ev.Kind == obs.KindAccess {
				events = append(events, ev)
			}
			return true
		})
	}
	return events, nil
}
