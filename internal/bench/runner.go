package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"hpmp/internal/obs"
	"hpmp/internal/stats"
)

// This file is the experiment runner: a worker-pool scheduler that executes
// registered experiments concurrently while keeping the output stream
// deterministic. Each experiment builds its own simulated machines, except
// for the units several experiments share through the run memo (memo.go),
// which one run computes once. The runner adds fault isolation (a
// panicking or failing experiment never aborts the others), per-experiment
// timeouts, context cancellation, and a per-experiment observability
// snapshot (wall time plus the cpu/mmu/kernel/monitor counters of every
// System the experiment booted or consumed).

// Status classifies one experiment attempt.
type Status string

const (
	// StatusOK: the experiment completed and produced a result.
	StatusOK Status = "ok"
	// StatusError: Run returned an error (or a nil result).
	StatusError Status = "error"
	// StatusPanic: Run panicked; the panic was recovered into Err.
	StatusPanic Status = "panic"
	// StatusTimeout: Run exceeded the per-experiment timeout.
	StatusTimeout Status = "timeout"
	// StatusCanceled: the run context was canceled before completion.
	StatusCanceled Status = "canceled"
)

// Outcome is the runner's record of one experiment attempt.
type Outcome struct {
	Experiment Experiment
	// Result is non-nil only when Status is StatusOK.
	Result *Result
	Err    error
	Status Status
	// Wall is the attempt's wall-clock duration.
	Wall time.Duration
	// Trace is the experiment's event tracer, non-nil only when tracing was
	// requested (RunOptions.TraceEvery > 0) and Status is StatusOK. A
	// timed-out experiment's goroutine is abandoned, not stopped, and could
	// still be emitting — so its tracer is never exposed.
	Trace *obs.Tracer
}

// OK reports whether the attempt succeeded.
func (o Outcome) OK() bool { return o.Status == StatusOK }

// RunOptions tunes the runner.
type RunOptions struct {
	// Parallel is the worker count, that is how many experiments run at
	// once; <= 0 means runtime.NumCPU(). Parallel == 1 starts experiments
	// one after another in input order. It does not make the run
	// single-threaded: an experiment still computes its run-memo units
	// concurrently (see sharedUnits), and GOMAXPROCS bounds the CPU used.
	Parallel int
	// Timeout bounds each experiment's wall time; 0 means no limit. The
	// simulator is not preemptible, so a timed-out experiment's goroutine
	// is abandoned, not interrupted.
	Timeout time.Duration
	// TraceEvery enables event tracing when > 0: each experiment gets its
	// own tracer sampling every TraceEvery-th translation event.
	TraceEvery int
	// TraceKeep is the per-experiment ring capacity; <= 0 means
	// obs.DefaultRing. Ignored unless TraceEvery > 0.
	TraceKeep int
	// Progress, when non-nil, is called once per finished experiment in
	// completion order (unlike emit, which waits for input order), with the
	// number finished so far and the total. Calls are serialized.
	Progress func(done, total int, o Outcome)
}

// RunAll executes the experiments on a worker pool and returns one Outcome
// per experiment, in input order. Failures are isolated: every experiment
// is attempted regardless of how many before it failed, panicked, or timed
// out. If emit is non-nil it is called exactly once per experiment, in
// input order, as soon as that experiment and all its predecessors have
// finished — so output streams deterministically no matter which worker
// finishes first. Canceling ctx marks not-yet-finished experiments
// StatusCanceled (in-flight simulations are abandoned, not interrupted).
func RunAll(ctx context.Context, cfg Config, exps []Experiment, opts RunOptions, emit func(Outcome)) []Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(exps)
	if n == 0 {
		return nil
	}
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}

	// Every index gets exactly one outcome; per-index channels let the
	// emitter drain results in input order while workers complete in any
	// order.
	outs := make([]chan Outcome, n)
	for i := range outs {
		outs[i] = make(chan Outcome, 1)
	}
	// One memo per call: experiments of this run share simulated units,
	// and nothing outlives the call.
	cfg.memo = newRunMemo()

	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)

	var progressMu sync.Mutex
	finished := 0
	report := func(o Outcome) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		finished++
		opts.Progress(finished, n, o)
		progressMu.Unlock()
	}

	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				o := runOne(ctx, cfg, exps[i], opts)
				report(o)
				outs[i] <- o
			}
		}()
	}

	outcomes := make([]Outcome, 0, n)
	for i := 0; i < n; i++ {
		o := <-outs[i]
		outcomes = append(outcomes, o)
		if emit != nil {
			emit(o)
		}
	}
	return outcomes
}

// panicError marks an error recovered from an experiment panic.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.val, e.stack)
}

// runOne attempts a single experiment with panic recovery, an optional
// timeout, counter observation, and (when requested) event tracing.
func runOne(ctx context.Context, cfg Config, exp Experiment, opts RunOptions) Outcome {
	timeout := opts.Timeout
	out := Outcome{Experiment: exp}
	if err := ctx.Err(); err != nil {
		out.Status = StatusCanceled
		out.Err = err
		return out
	}

	ob := &observer{}
	cfg.obs = ob
	if opts.TraceEvery > 0 {
		cfg.tracer = obs.NewTracer(opts.TraceKeep, opts.TraceEvery)
	}

	type reply struct {
		res *Result
		err error
	}
	done := make(chan reply, 1)
	start := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- reply{nil, &panicError{val: p, stack: debug.Stack()}}
			}
		}()
		// The experiment label splits host profiles by experiment; memo
		// units add their own label on top (see sharedUnits).
		pprof.Do(ctx, pprof.Labels("experiment", exp.ID), func(ctx context.Context) {
			c := cfg
			c.ctx = ctx
			res, err := exp.Run(c)
			done <- reply{res, err}
		})
	}()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}

	select {
	case r := <-done:
		out.Wall = time.Since(start)
		switch {
		case r.err != nil:
			if errors.As(r.err, new(*panicError)) {
				out.Status = StatusPanic
			} else {
				out.Status = StatusError
			}
			out.Err = fmt.Errorf("%s: %w", exp.ID, r.err)
		case r.res == nil:
			out.Status = StatusError
			out.Err = fmt.Errorf("%s: experiment returned no result", exp.ID)
		default:
			out.Status = StatusOK
			out.Result = r.res
			r.res.Hists = make(map[string]*stats.Histogram)
			ob.snapshot(&r.res.Counters, r.res.Hists)
			out.Trace = cfg.tracer
		}
	case <-timer:
		out.Wall = time.Since(start)
		out.Status = StatusTimeout
		out.Err = fmt.Errorf("%s: timed out after %v", exp.ID, timeout)
	case <-ctx.Done():
		out.Wall = time.Since(start)
		out.Status = StatusCanceled
		out.Err = ctx.Err()
	}
	return out
}

// observer collects, in registration order, every System an experiment
// boots and the frozen snapshot of every memo unit it consumes, so the
// runner can snapshot their counters and histograms into the Result when
// the experiment finishes. Safe for concurrent use; a nil observer is a
// no-op (experiments run outside the runner skip observation entirely).
type observer struct {
	mu    sync.Mutex
	parts []observed
}

// observed is one registration: anything that merges its counters and
// histograms into an experiment's snapshot.
type observed interface {
	mergeInto(into *stats.Counters, hists map[string]*stats.Histogram)
}

func (o *observer) add(p observed) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.parts = append(o.parts, p)
	o.mu.Unlock()
}

// snapshot merges every registration, in order, into one counter set and
// one histogram family map. Registration order fixes the counters'
// first-use order. Called only after the experiment's goroutine has
// finished, so the systems are quiescent.
func (o *observer) snapshot(into *stats.Counters, hists map[string]*stats.Histogram) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range o.parts {
		p.mergeInto(into, hists)
	}
}

// mergeInto merges one system: the machine's counters, then the kernel's,
// then the monitor's, then the machine's histograms.
func (s *System) mergeInto(into *stats.Counters, hists map[string]*stats.Histogram) {
	s.Mach.MergeCounters(into)
	if s.Kern != nil {
		into.Merge(&s.Kern.Counters)
	}
	if s.Mon != nil {
		into.Merge(&s.Mon.Counters)
	}
	s.Mach.EachHistogram(func(family string, h *stats.Histogram) { mergeHist(hists, family, h) })
}

// mergeInto merges a unit's snapshot. Merging the pre-merged counters
// appends names in the same first-use order as merging its systems one by
// one, and histogram merges are sums, so a consumer's snapshot is the one
// it would have taken of the live systems.
func (f *frozen) mergeInto(into *stats.Counters, hists map[string]*stats.Histogram) {
	into.Merge(&f.counters)
	for family, h := range f.hists {
		mergeHist(hists, family, h)
	}
}

// mergeHist folds one machine's latency histogram into the experiment-wide
// family map, creating the family on first sight.
func mergeHist(into map[string]*stats.Histogram, name string, src *stats.Histogram) {
	dst, ok := into[name]
	if !ok {
		dst = new(stats.Histogram)
		into[name] = dst
	}
	dst.Merge(src)
}

// Summary renders the end-of-run report: one row per experiment in input
// order — id, status, wall time, result size, and the error for anything
// that failed. Wall times vary run to run, so callers should keep the
// summary out of byte-compared output streams (the CLI prints it to
// stderr).
func Summary(outcomes []Outcome) *stats.Table {
	t := stats.NewTable("run summary", "Experiment", "Status", "Wall", "Tables", "Rows", "Error")
	for _, o := range outcomes {
		tables, rows := 0, 0
		if o.Result != nil {
			tables = len(o.Result.Tables)
			for _, tb := range o.Result.Tables {
				rows += tb.NumRows()
			}
		}
		errText := ""
		if o.Err != nil {
			errText = firstLine(o.Err.Error())
		}
		t.AddRow(o.Experiment.ID, string(o.Status),
			o.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", tables), fmt.Sprintf("%d", rows), errText)
	}
	return t
}

// CountersCSV renders one experiment's counter snapshot as CSV with the
// names sorted, so the emission is deterministic even though experiments
// boot systems in nondeterministic (map-ordered) sequences.
func CountersCSV(res *Result) string {
	t := stats.NewTable("", "counter", "value")
	snap := res.Counters.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.AddRow(n, fmt.Sprintf("%d", snap[n]))
	}
	return t.CSV()
}

// MetricsFor builds one outcome's exportable metrics snapshot: the spec
// identification, the merged counter snapshot with derived rates, wall
// time, and the tracer summary when tracing was on. Works for failed
// outcomes too — they export with an empty counter set and their status.
func MetricsFor(o Outcome, quick bool) *obs.Metrics {
	counters := map[string]uint64{}
	if o.Result != nil {
		counters = o.Result.Counters.Snapshot()
	}
	m := obs.NewMetrics(o.Experiment.ID, counters)
	if o.Result != nil && len(o.Result.Hists) > 0 {
		m.Histograms = make(map[string]stats.HistogramSnapshot, len(o.Result.Hists))
		for name, h := range o.Result.Hists {
			m.Histograms[name] = h.Snapshot()
		}
	}
	m.Title = o.Experiment.Title
	m.Figure = o.Experiment.Figure
	m.Status = string(o.Status)
	m.Quick = quick
	m.WallSeconds = o.Wall.Seconds()
	m.SetTracer(o.Trace)
	return m
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// naturalLess orders experiment IDs with numeric awareness: runs of digits
// compare as numbers, everything else byte-wise. So fig3a < fig10 (3 < 10)
// and table3 < table4, where plain lexicographic order would put fig10
// first.
func naturalLess(a, b string) bool {
	for a != "" && b != "" {
		ac, an := chunk(a)
		bc, bn := chunk(b)
		if ac != bc {
			if isDigit(ac[0]) && isDigit(bc[0]) {
				at, bt := trimZeros(ac), trimZeros(bc)
				if len(at) != len(bt) {
					return len(at) < len(bt)
				}
				if at != bt {
					return at < bt
				}
				// Same numeric value, different zero-padding: fewer
				// leading zeros first, deterministically.
				return len(ac) < len(bc)
			}
			return ac < bc
		}
		a, b = an, bn
	}
	return len(a) < len(b)
}

// chunk splits s into its leading run of digits or non-digits plus the
// rest.
func chunk(s string) (head, tail string) {
	i := 1
	for i < len(s) && isDigit(s[i]) == isDigit(s[0]) {
		i++
	}
	return s[:i], s[i:]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func trimZeros(s string) string {
	i := 0
	for i < len(s)-1 && s[i] == '0' {
		i++
	}
	return s[i:]
}
