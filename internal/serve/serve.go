// Package serve is the hpmpsimd multi-tenant simulation service: a
// bounded job queue in front of the bench worker pool, running N
// concurrent tenant jobs, each with its own simulated memory system and
// merged stats. Endpoints:
//
//	POST   /v1/jobs            submit a job (run or replay, unified config)
//	GET    /v1/jobs            list job statuses
//	GET    /v1/jobs/{id}       one job's status + hpmp-metrics/v1 results
//	GET    /v1/jobs/{id}/metrics   the raw metrics document alone
//	GET    /v1/jobs/{id}/trace     captured trace, hpmp-trace/v1 JSONL (chunked)
//	GET    /v1/jobs/{id}/timeline  lifecycle timestamps + queue/run durations
//	GET    /v1/jobs/{id}/events    live SSE stream of lifecycle events
//	DELETE /v1/jobs/{id}       cancel (queued or mid-run)
//	GET    /v1/experiments     the experiment registry
//	GET    /metrics            live Prometheus (per-tenant + daemon families)
//	GET    /healthz            liveness
//
// Jobs are isolated the same way CLI experiments are: every simulated
// machine belongs to exactly one job, and a panicking or failing
// experiment is contained by the bench runner. Identical submissions
// produce byte-identical metrics — wall-clock data lives only in the job
// status envelope, the timeline, the SSE stream, and the structured log,
// never in pinned artifacts.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
)

// Options tunes the daemon.
type Options struct {
	// Workers is the tenant-job concurrency (default 4).
	Workers int
	// QueueDepth bounds jobs waiting behind the running ones (default
	// 16); a full queue answers 503 with Retry-After.
	QueueDepth int
	// Logger receives structured lifecycle logs (submit, dequeue, finish,
	// cancel, drain, stream aborts) with per-job fields. Default: discard.
	// Tests pin log output by injecting a handler that drops the time
	// attribute and writes to a buffer.
	Logger *slog.Logger
	// Now is the clock behind every job timestamp (status envelope,
	// timeline, SSE events, latency histograms). Default time.Now; tests
	// inject a manual clock to make timelines deterministic.
	Now func() time.Time
	// EventBuffer bounds each job's retained lifecycle-event log (default
	// 256). The log is what /timeline serves and what SSE consumers
	// replay from; when it overflows, the oldest events drop and readers
	// are told how many they missed. Appends never block, so a stalled
	// SSE consumer cannot wedge a worker.
	EventBuffer int
	// SSEHeartbeat is the idle keep-alive interval on /events (default
	// 15s): a comment line that holds intermediaries' timeouts open.
	SSEHeartbeat time.Duration
	// TraceFlushEvery is the event stride between explicit chunk flushes
	// on the streamed trace download (default obs.DefaultStreamFlush).
	TraceFlushEvery int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 256
	}
	if o.SSEHeartbeat <= 0 {
		o.SSEHeartbeat = 15 * time.Second
	}
	if o.TraceFlushEvery <= 0 {
		o.TraceFlushEvery = obs.DefaultStreamFlush
	}
	return o
}

// Server is the daemon core: the job table, the bounded queue, and the
// worker pool. Create with New, mount via Handler, stop via Drain.
type Server struct {
	opts Options
	log  *slog.Logger
	now  func() time.Time
	mux  *http.ServeMux

	baseCtx   context.Context
	cancelAll context.CancelFunc
	queue     chan *Job
	wg        sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	draining bool

	// Daemon-level latency histograms, all rendered on /metrics:
	// queue-wait and run-duration per job, HTTP latency per route+code.
	hQueueWait *obs.SecondsHistogram
	hRunSecs   *obs.SecondsHistogram
	httpRoutes []string // registration order = exposition order
	httpHist   map[string]*routeHist

	// exec runs one job body; tests substitute it to model slow or
	// misbehaving tenants without booting simulators.
	exec func(ctx context.Context, j *Job) error
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		log:        opts.Logger,
		now:        opts.Now,
		baseCtx:    ctx,
		cancelAll:  cancel,
		queue:      make(chan *Job, opts.QueueDepth),
		jobs:       map[string]*Job{},
		hQueueWait: obs.NewSecondsHistogram(),
		hRunSecs:   obs.NewSecondsHistogram(),
		httpHist:   map[string]*routeHist{},
	}
	s.exec = func(ctx context.Context, j *Job) error { return j.execute(ctx) }
	s.mux = http.NewServeMux()
	s.routes()
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs", s.handleList)
	s.handle("GET /v1/jobs/{id}", s.handleStatus)
	s.handle("DELETE /v1/jobs/{id}", s.handleCancel)
	s.handle("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	s.handle("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.handle("GET /v1/jobs/{id}/timeline", s.handleJobTimeline)
	s.handle("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.handle("GET /v1/experiments", s.handleExperiments)
	s.handle("GET /metrics", s.handlePrometheus)
	s.handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// worker drains the queue until Drain closes it (or the base context is
// canceled). Job panics are already contained: run jobs recover inside
// the bench runner, and replay jobs execute trusted engine code — but a
// defensive recover keeps one poisoned job from killing the pool.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = s.now()
	queueWait := j.started.Sub(j.created).Seconds()
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	s.mu.Unlock()
	s.hQueueWait.Observe(queueWait)
	j.record(j.started, evDequeued, "", "")
	s.log.Info("job running", "job", j.ID, "kind", j.Request.Kind,
		"queue_seconds", queueWait)
	j.record(s.now(), evStarted, "", "")

	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("serve: job panicked: %v", p)
			}
		}()
		return s.exec(ctx, j)
	}()
	cancel()

	s.mu.Lock()
	j.finished = s.now()
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errText = "canceled"
	default:
		j.state = StateFailed
		j.errText = err.Error()
	}
	finished, state, errText := j.finished, j.state, j.errText
	runSecs := finished.Sub(j.started).Seconds()
	close(j.done)
	s.mu.Unlock()
	s.hRunSecs.Observe(runSecs)
	j.record(finished, evFinished, "", state)
	if errText != "" {
		s.log.Warn("job finished", "job", j.ID, "state", state,
			"run_seconds", runSecs, "error", errText)
	} else {
		s.log.Info("job finished", "job", j.ID, "state", state,
			"run_seconds", runSecs)
	}
}

// Drain stops intake (POSTs answer 503), waits for queued and running
// jobs to finish, and returns nil on a clean drain. When ctx expires
// first, every remaining job is canceled and Drain reports the error
// after the workers exit.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	pending := 0
	for _, j := range s.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			pending++
		}
	}
	s.mu.Unlock()
	if !already {
		close(s.queue)
		s.log.Info("draining", "pending_jobs", pending)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if !already {
			s.log.Info("drained")
		}
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done
		s.log.Warn("drain expired; in-flight jobs canceled", "cause", ctx.Err())
		return fmt.Errorf("serve: drain expired, %w; in-flight jobs canceled", ctx.Err())
	}
}

// --- HTTP handlers ----------------------------------------------------

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeJob is the admission check of every submitted job: it decodes the
// body strictly (an unknown field is an error) and resolves the request.
// A body it refuses is a 400 and never queued.
func decodeJob(body io.Reader) (*Job, error) {
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: parsing job: %w", err)
	}
	j := &Job{Request: req, done: make(chan struct{})}
	if err := j.resolve(); err != nil {
		return nil, err
	}
	return j, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, err := decodeJob(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j.initEvents(s.opts.EventBuffer, s.now)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "serve: draining, not accepting jobs")
		return
	}
	s.nextID++
	j.ID = fmt.Sprintf("job-%d", s.nextID)
	j.state = StateQueued
	j.created = s.now()
	// Recording "submitted" before the enqueue keeps event seq 0 ahead of
	// the worker's "dequeued" even when a worker is already waiting.
	j.record(j.created, evSubmitted, "", "")
	select {
	case s.queue <- j:
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	default:
		s.nextID-- // rejected submissions don't consume IDs
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		s.log.Warn("queue full, job rejected", "kind", j.Request.Kind, "depth", cap(s.queue))
		httpError(w, http.StatusServiceUnavailable,
			"serve: queue full (%d deep); retry later", cap(s.queue))
		return
	}
	st := j.status()
	s.mu.Unlock()
	s.log.Info("job queued", "job", j.ID, "kind", j.Request.Kind,
		"experiments", len(j.exps), "trace", j.Request.Trace)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		st := s.jobs[id].status()
		st.Results = nil // the list stays light; fetch one job for results
		out = append(out, st)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// jobFor resolves {id} or answers 404. Returns with the lock released.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "serve: no job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	var terminal time.Time
	switch j.state {
	case StateQueued:
		// The worker skips jobs whose state moved past queued.
		j.state = StateCanceled
		j.errText = "canceled before start"
		j.finished = s.now()
		terminal = j.finished
		close(j.done)
	case StateRunning:
		j.cancel()
	}
	st := j.status()
	s.mu.Unlock()
	if !terminal.IsZero() {
		j.record(terminal, evFinished, "", StateCanceled)
		s.log.Info("job canceled before start", "job", j.ID)
	} else if st.State == StateRunning {
		s.log.Info("job cancellation requested", "job", j.ID)
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	terminal := j.state == StateDone || j.state == StateFailed
	s.mu.Unlock()
	if !terminal {
		httpError(w, http.StatusConflict, "serve: %s is %s; metrics exist once the job finishes", j.ID, j.state)
		return
	}
	data, err := j.metricsJSON()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "serve: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// countingWriter tracks whether any byte reached the underlying writer,
// so the trace handler can tell "no response committed yet" (a JSON 500
// is still possible) from "mid-stream" (it is not).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// handleJobTrace serves a captured trace as chunked hpmp-trace/v1 JSONL.
// The stream path is bounded: events are encoded straight off the
// tracer's ring through obs.WriteTraceStream (no full-ring buffer), and
// the response flushes every TraceFlushEvery events so large traces leave
// the server as they are produced. Headers are committed before the
// first byte; a write failure after that cannot send a JSON error into a
// stream that already promised 200 + JSONL, so the handler logs the
// abort and closes the connection — the truncation is then detectable on
// the client side, because ReadTrace rejects a body shorter than the
// header's kept count.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	terminal := j.state == StateDone || j.state == StateFailed
	s.mu.Unlock()
	if !terminal {
		httpError(w, http.StatusConflict, "serve: %s is %s; traces exist once the job finishes", j.ID, j.state)
		return
	}
	// Post-terminal, traces are immutable — no lock needed.
	if len(j.traceOrder) == 0 {
		httpError(w, http.StatusNotFound, "serve: %s captured no trace (submit with \"trace\": true)", j.ID)
		return
	}
	id := r.URL.Query().Get("experiment")
	if id == "" {
		if len(j.traceOrder) > 1 {
			httpError(w, http.StatusBadRequest,
				"serve: %s has %d traces; pick one with ?experiment= (%v)",
				j.ID, len(j.traceOrder), j.traceOrder)
			return
		}
		id = j.traceOrder[0]
	}
	tr, ok := j.traces[id]
	if !ok {
		httpError(w, http.StatusNotFound, "serve: %s has no trace for %q (%v)", j.ID, id, j.traceOrder)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", j.ID+"-"+id+".trace.jsonl"))
	fl, _ := w.(http.Flusher)
	onFlush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	cw := &countingWriter{w: w}
	if err := obs.WriteTraceStream(cw, j.ID+"/"+id, tr, s.opts.TraceFlushEvery, onFlush); err != nil {
		if cw.n == 0 {
			httpError(w, http.StatusInternalServerError, "serve: streaming trace: %v", err)
			return
		}
		s.log.Warn("trace stream aborted mid-stream; closing connection",
			"job", j.ID, "experiment", id, "written_bytes", cw.n, "error", err)
		panic(http.ErrAbortHandler)
	}
}

// experimentInfo is one /v1/experiments row.
type experimentInfo struct {
	ID       string   `json:"id"`
	Title    string   `json:"title"`
	Figure   string   `json:"figure,omitempty"`
	Cost     string   `json:"cost"`
	Counters []string `json:"counters,omitempty"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	all := bench.All()
	out := make([]experimentInfo, 0, len(all))
	for _, e := range all {
		out = append(out, experimentInfo{
			ID: e.ID, Title: e.Title, Figure: e.Figure,
			Cost: string(e.Cost), Counters: e.Counters,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// snapshotJobs returns the job list in submission order, for /metrics.
func (s *Server) snapshotJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// sortedKeys returns m's keys sorted, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
