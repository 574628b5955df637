package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/replay"
	"hpmp/internal/simcfg"
)

// Request is the POST /v1/jobs body: one tenant's simulation job on the
// unified machine-config API. Exactly two kinds exist — "run" executes
// registered experiments on the fault-isolated bench runner, "replay"
// re-executes an inline hpmp-trace/v1 stream on the replay engine. Both
// kinds share the simcfg.Machine config and its single validation path;
// a run job's experiments pick their own platform, mode and geometry per
// paper figure, so it may set only the memory size.
type Request struct {
	// Kind selects the job type: "run" or "replay".
	Kind string `json:"kind"`
	// Experiments lists registry IDs for a run job; the single entry
	// "all" expands to the full registry.
	Experiments []string `json:"experiments,omitempty"`
	// Quick selects the scaled-down experiment sizes (CI tier).
	Quick bool `json:"quick,omitempty"`
	// Machine is the unified machine config; omitted fields take the
	// canonical defaults (rocket/hpmp/512MiB). Run jobs accept only
	// mem_mib.
	Machine *simcfg.Machine `json:"machine,omitempty"`
	// Workload scales the traffic workloads (run jobs only).
	Workload *simcfg.WorkloadScale `json:"workload,omitempty"`
	// Trace enables event tracing; the capture is served back on
	// GET /v1/jobs/{id}/trace in hpmp-trace/v1 JSONL.
	Trace bool `json:"trace,omitempty"`
	// TraceEvery samples every Nth translation event (default 1).
	TraceEvery int `json:"trace_every,omitempty"`
	// TraceKeep bounds the per-experiment ring (default obs.DefaultRing;
	// a replay job's default is 16 events per trace event plus
	// obs.DefaultRing, capped at obs.MaxRing). A full ring keeps the
	// newest events.
	TraceKeep int `json:"trace_keep,omitempty"`
	// ID names the replay metrics source (default "replay"), mirroring
	// the CLI's -id flag.
	ID string `json:"id,omitempty"`
	// TraceJSONL is the replay job's input: an inline hpmp-trace/v1
	// stream, exactly the bytes a trace file holds. Inline transport
	// keeps the daemon path-free: tenants never name server files.
	TraceJSONL string `json:"trace_jsonl,omitempty"`
}

// JobState is the lifecycle of one job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// States lists every job state, for the /metrics gauge family.
var States = []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// Job is one tenant's accepted simulation job. The mutable fields are
// guarded by the owning Server's mutex; results and traces are written
// once by the worker before the state moves past running and are
// read-only afterwards.
type Job struct {
	ID      string
	Request Request

	// machine is the resolved, validated config (defaults applied).
	machine simcfg.Machine
	// exps is the resolved experiment list (run jobs).
	exps []bench.Experiment
	// events are the parsed input trace (replay jobs).
	events []obs.Event

	state    JobState
	errText  string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	done     chan struct{}

	// now is the server clock, captured at submit so the worker can stamp
	// per-experiment events without reaching back into the Server.
	now func() time.Time

	// The lifecycle event log behind /timeline and the SSE stream: a
	// bounded slice under its own mutex. Producers append and never block;
	// evBase counts events dropped to the bound, evPing is closed and
	// replaced on every append to wake streaming readers. Lock ordering:
	// evMu is a leaf — never acquire the Server mutex while holding it.
	evMu   sync.Mutex
	evLog  []TimelineEvent
	evBase int
	evSeq  int
	evCap  int
	evPing chan struct{}
	evDone bool

	// resMu guards results and divergences, which the worker commits
	// per experiment while /metrics scrapes may be reading — finished
	// experiments of a still-running job are already visible.
	resMu sync.Mutex
	// results holds one hpmp-metrics/v1 snapshot per experiment (input
	// order), wall time zeroed so identical submissions produce
	// byte-identical metrics.
	results []*obs.Metrics
	// traces holds captured tracers keyed by experiment ID (or the
	// replay source ID), with traceOrder preserving emission order.
	traces     map[string]*obs.Tracer
	traceOrder []string
	// divergences counts replayed accesses that contradicted the
	// recording (replay jobs; cross-config divergence is expected and is
	// data, not an error).
	divergences uint64
}

// Status is the GET /v1/jobs/{id} document: lifecycle plus the job's
// hpmp-metrics/v1 results. Timing fields live here — never inside the
// metrics — so the metrics stay deterministic.
type Status struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	State    JobState   `json:"state"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// QueueSeconds (submission→start) and RunSeconds (start→finish) are
	// derived from the timestamps above once each interval is complete.
	QueueSeconds *float64       `json:"queue_seconds,omitempty"`
	RunSeconds   *float64       `json:"run_seconds,omitempty"`
	Machine      simcfg.Machine `json:"machine"`
	Experiments  []string       `json:"experiments,omitempty"`
	Divergences  uint64         `json:"divergences,omitempty"`
	Traces       []string       `json:"traces,omitempty"`
	Results      []*obs.Metrics `json:"results,omitempty"`
}

// resolve validates the request on the one simcfg path and fills the
// job's derived fields. Every error is a 4xx: the request was understood
// and rejected.
func (j *Job) resolve() error {
	req := &j.Request
	m := simcfg.Default()
	if req.Machine != nil {
		m = req.Machine.WithDefaults()
	}
	if err := m.Validate(); err != nil {
		return err
	}
	j.machine = m
	if req.Workload != nil {
		if err := req.Workload.Validate(); err != nil {
			return err
		}
	}
	if req.TraceEvery < 0 || req.TraceKeep < 0 {
		return fmt.Errorf("serve: trace_every and trace_keep must be >= 0")
	}
	if req.TraceKeep > obs.MaxRing {
		return fmt.Errorf("serve: trace_keep %d is above the %d-event maximum", req.TraceKeep, obs.MaxRing)
	}

	switch req.Kind {
	case "run":
		if req.Machine != nil && *req.Machine != (simcfg.Machine{MemSize: req.Machine.MemSize}) {
			return fmt.Errorf("serve: run jobs take only machine.mem_mib (experiments pick their own platform, mode and geometry)")
		}
		if len(req.Experiments) == 0 {
			return fmt.Errorf("serve: run job needs experiments (registry ids, or [\"all\"])")
		}
		if len(req.Experiments) == 1 && req.Experiments[0] == "all" {
			j.exps = bench.All()
			return nil
		}
		for _, id := range req.Experiments {
			exp, ok := bench.ByID(id)
			if !ok {
				return fmt.Errorf("serve: unknown experiment %q (see GET /v1/experiments)", id)
			}
			j.exps = append(j.exps, exp)
		}
		return nil
	case "replay":
		if req.TraceJSONL == "" {
			return fmt.Errorf("serve: replay job needs trace_jsonl (inline hpmp-trace/v1)")
		}
		_, events, err := obs.ReadTrace(strings.NewReader(req.TraceJSONL))
		if err != nil {
			return fmt.Errorf("serve: parsing trace_jsonl: %w", err)
		}
		j.events = events
		return nil
	default:
		return fmt.Errorf("serve: kind must be \"run\" or \"replay\" (got %q)", req.Kind)
	}
}

// execute runs the job to completion (or cancellation). It is the
// worker-side entry point; the caller owns the state transitions around
// it via Server.finish.
func (j *Job) execute(ctx context.Context) error {
	switch j.Request.Kind {
	case "run":
		return j.executeRun(ctx)
	default:
		return j.executeReplay(ctx)
	}
}

// executeRun drives the bench worker pool. Experiments inside one job run
// one at a time (Parallel: 1): tenant-level concurrency comes from the
// daemon's own workers. An experiment's run-memo units still compute
// concurrently, with results identical to computing them in order, so
// identical submissions stay byte-identical.
func (j *Job) executeRun(ctx context.Context) error {
	cfg := bench.DefaultConfig()
	cfg.Quick = j.Request.Quick
	cfg.MemSize = j.machine.MemSize
	if j.Request.Workload != nil {
		cfg.Workload = *j.Request.Workload
	}
	opts := bench.RunOptions{Parallel: 1}
	if j.Request.Trace {
		opts.TraceEvery = j.Request.TraceEvery
		if opts.TraceEvery == 0 {
			opts.TraceEvery = 1
		}
		opts.TraceKeep = j.Request.TraceKeep
	}
	// Committing per experiment (instead of once at the end) lets a
	// concurrent /metrics scrape see a running job's finished
	// experiments immediately.
	outcomes := bench.RunAll(ctx, cfg, j.exps, opts, func(o bench.Outcome) {
		m := bench.MetricsFor(o, cfg.Quick)
		m.WallSeconds = 0 // wall time is job-status data, not metrics data
		j.commit(m)
		if o.Trace != nil {
			j.addTrace(o.Experiment.ID, o.Trace)
		}
		j.record(j.now(), evExperiment, o.Experiment.ID, "")
	})

	var failed []string
	for _, o := range outcomes {
		if !o.OK() {
			if o.Status == bench.StatusCanceled {
				return ctx.Err()
			}
			failed = append(failed, fmt.Sprintf("%s: %s", o.Experiment.ID, o.Status))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("serve: %d of %d experiments failed (%s)",
			len(failed), len(outcomes), strings.Join(failed, "; "))
	}
	return nil
}

// cancelCheckStride bounds how many replay events run between context
// checks; the replay engine itself has no context plumbing.
const cancelCheckStride = 1024

// executeReplay re-executes the job's parsed trace on a machine built
// from the unified config, checking for cancellation between strides.
func (j *Job) executeReplay(ctx context.Context) error {
	eng, err := replay.New(j.machine)
	if err != nil {
		return err
	}
	var tr *obs.Tracer
	if j.Request.Trace {
		keep := j.Request.TraceKeep
		if keep <= 0 {
			keep = min(16*len(j.events)+4096, obs.MaxRing)
		}
		every := j.Request.TraceEvery
		if every <= 0 {
			every = 1
		}
		tr = obs.NewTracer(keep, every)
		eng.SetTracer(tr)
	}
	for i, ev := range j.events {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := eng.Step(ev); err != nil {
			return err
		}
	}
	if err := eng.Flush(); err != nil {
		return err
	}
	source := j.Request.ID
	if source == "" {
		source = "replay"
	}
	m := eng.Metrics(source)
	m.WallSeconds = 0
	j.commit(m)
	j.resMu.Lock()
	j.divergences = eng.Stats.Divergences
	j.resMu.Unlock()
	if tr != nil {
		j.addTrace(source, tr)
	}
	j.record(j.now(), evExperiment, source, "")
	return nil
}

// commit publishes one finished experiment's metrics snapshot. Snapshots
// are immutable after commit; readers take a length-consistent copy via
// snapshotResults.
func (j *Job) commit(m *obs.Metrics) {
	j.resMu.Lock()
	j.results = append(j.results, m)
	j.resMu.Unlock()
}

// snapshotResults returns the committed snapshots and the divergence
// count at one instant.
func (j *Job) snapshotResults() ([]*obs.Metrics, uint64) {
	j.resMu.Lock()
	defer j.resMu.Unlock()
	return append([]*obs.Metrics(nil), j.results...), j.divergences
}

func (j *Job) addTrace(id string, tr *obs.Tracer) {
	if j.traces == nil {
		j.traces = map[string]*obs.Tracer{}
	}
	if _, dup := j.traces[id]; !dup {
		j.traceOrder = append(j.traceOrder, id)
	}
	j.traces[id] = tr
}

// status renders the job document. Caller holds the server mutex.
func (j *Job) status() Status {
	results, div := j.snapshotResults()
	st := Status{
		ID:          j.ID,
		Kind:        j.Request.Kind,
		State:       j.state,
		Error:       j.errText,
		Created:     j.created,
		Machine:     j.machine,
		Divergences: div,
	}
	for _, e := range j.exps {
		st.Experiments = append(st.Experiments, e.ID)
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
		q := j.started.Sub(j.created).Seconds()
		st.QueueSeconds = &q
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
		if !j.started.IsZero() {
			d := j.finished.Sub(j.started).Seconds()
			st.RunSeconds = &d
		}
	}
	if j.state == StateDone || j.state == StateFailed {
		st.Results = results
		st.Traces = j.traceOrder
	}
	return st
}

// metricsJSON renders the job's results as raw hpmp-metrics/v1 bytes:
// one object when the job produced exactly one snapshot (readable by
// obs.ReadMetrics), else a JSON array of snapshots. Deterministic by
// construction — wall times are zeroed at collection.
func (j *Job) metricsJSON() ([]byte, error) {
	results, _ := j.snapshotResults()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if len(results) == 1 {
		err := enc.Encode(results[0])
		return buf.Bytes(), err
	}
	err := enc.Encode(results)
	return buf.Bytes(), err
}
