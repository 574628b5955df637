package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/serve"
)

// jobSpec is one distinct daemon-mix request.
type jobSpec struct {
	Key    string // reference key, such as "run/fig10"
	Traced bool   // the client downloads the job's trace afterwards
	Body   []byte // the POST /v1/jobs body
}

// jobCatalog lists every distinct request daemon-mix sends: a quick run
// job and a traced quick run job per light experiment, and a replay job
// uploading the quick fig10 trace. Light experiments keep every request
// short, so the mix exercises the daemon rather than the simulator
// (eval-quick covers that) and each request repeats many times in a
// window.
type jobCatalog struct {
	run, traced []jobSpec
	replay      jobSpec
}

// jobTraceKeep bounds every trace the mix uploads or downloads. The daemon
// keeps each finished job, its inline upload and its trace in memory, so
// the default 4096-event rings would grow the process past a gigabyte in a
// 20 s window; at 256 it stays under 400 MB.
const jobTraceKeep = 256

func newCatalog() (*jobCatalog, error) {
	c := &jobCatalog{}
	exp, ok := bench.ByID("fig10")
	if !ok {
		return nil, errors.New("experiment fig10 is not registered")
	}
	outs := bench.RunAll(context.Background(), evalConfig(), []bench.Experiment{exp},
		bench.RunOptions{Parallel: 1, TraceEvery: 1, TraceKeep: jobTraceKeep}, nil)
	if !outs[0].OK() {
		return nil, fmt.Errorf("capturing the fig10 trace: %v", outs[0].Err)
	}
	var trace strings.Builder
	if err := obs.WriteTrace(&trace, "fig10", outs[0].Trace); err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.Request{Kind: "replay", TraceJSONL: trace.String()})
	if err != nil {
		return nil, err
	}
	c.replay = jobSpec{Key: "replay/fig10", Body: body}
	for _, e := range bench.All() {
		if e.Cost != bench.CostLight {
			continue
		}
		body, err := json.Marshal(serve.Request{Kind: "run", Experiments: []string{e.ID}, Quick: true})
		if err != nil {
			return nil, err
		}
		c.run = append(c.run, jobSpec{Key: "run/" + e.ID, Body: body})
		body, err = json.Marshal(serve.Request{Kind: "run", Experiments: []string{e.ID}, Quick: true,
			Trace: true, TraceKeep: jobTraceKeep})
		if err != nil {
			return nil, err
		}
		c.traced = append(c.traced, jobSpec{Key: "traced/" + e.ID, Traced: true, Body: body})
	}
	return c, nil
}

// all returns every distinct request once.
func (c *jobCatalog) all() []jobSpec {
	out := append(append([]jobSpec(nil), c.run...), c.traced...)
	return append(out, c.replay)
}

// jobDeck deals the seeded job sequence. Kinds come from shuffled decks of
// 20 (13 run, 4 replay, 3 traced run) and experiments from shuffled decks
// of the catalogue, so every seed sends the same mix in a different order.
type jobDeck struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cat    *jobCatalog
	limit  int // 0: unlimited
	dealt  int
	kinds  []byte
	run    []int
	traced []int
}

func newJobDeck(seed uint64, cat *jobCatalog, limit int) *jobDeck {
	return &jobDeck{rng: newRNG(seed), cat: cat, limit: limit}
}

// next returns the next job, or false once limit jobs were dealt.
func (d *jobDeck) next() (jobSpec, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.limit > 0 && d.dealt >= d.limit {
		return jobSpec{}, false
	}
	d.dealt++
	switch drawCard(d.rng, &d.kinds, func() []byte { return []byte(jobKindDeck) }) {
	case 'p':
		return d.cat.replay, true
	case 't':
		return d.cat.traced[drawCard(d.rng, &d.traced, func() []int { return d.rng.Perm(len(d.cat.traced)) })], true
	}
	return d.cat.run[drawCard(d.rng, &d.run, func() []int { return d.rng.Perm(len(d.cat.run)) })], true
}

// jobKindDeck is one deck of job kinds: 65% run, 20% replay and 15%
// traced run jobs.
const jobKindDeck = "rrrrrrrrrrrrrppppttt"

// drawCard takes the next card from deck, refilling it from fill and
// shuffling it when it is empty.
func drawCard[T any](rng *rand.Rand, deck *[]T, fill func() []T) T {
	if len(*deck) == 0 {
		*deck = fill()
		rng.Shuffle(len(*deck), func(i, j int) { (*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i] })
	}
	v := (*deck)[0]
	*deck = (*deck)[1:]
	return v
}

// daemon is one in-process hpmpsimd behind an httptest server.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	refs   map[string]jobRef
}

// jobRef is the warm-up reply a later job of the same request must match.
type jobRef struct {
	metrics     []byte
	accesses    uint64
	traceEvents int
	counters    map[string]uint64
}

func startDaemon(workers int) *daemon {
	srv := serve.New(serve.Options{Workers: workers, QueueDepth: 2 * workers})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 2 * workers
	return &daemon{srv: srv, ts: ts, client: client, refs: map[string]jobRef{}}
}

// close drains the daemon and stops its server; it returns once every
// worker and connection has ended.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.client.CloseIdleConnections()
	d.ts.Close()
	return err
}

// jobReply is what one job returned to its client.
type jobReply struct {
	id          string
	latency     time.Duration // submit until the finished event arrived
	metrics     []byte
	traceEvents int
	queue, run  time.Duration // from the server's timeline (traced runs only)
}

// do runs one job the way a tenant does: submit, wait for the finished
// event on the SSE stream, fetch the metrics, and for a traced job
// download and parse the trace. With spans it also fetches the job's
// timeline and records every call.
func (d *daemon) do(spec jobSpec, spans *spanLog, parent int) (jobReply, error) {
	var r jobReply
	type call struct {
		name       string
		start, end time.Time
	}
	var calls []call
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		calls = append(calls, call{name, start, time.Now()})
		return err
	}
	start := time.Now()
	err := timed("http.submit", func() error {
		body, err := d.request(http.MethodPost, "/v1/jobs", spec.Body, http.StatusAccepted)
		if err != nil {
			return err
		}
		var st serve.Status
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("submit reply: %w", err)
		}
		r.id = st.ID
		return nil
	})
	if err == nil {
		err = timed("http.events", func() error { return d.waitDone(r.id) })
	}
	r.latency = time.Since(start)
	if err == nil {
		err = timed("http.metrics", func() error {
			var merr error
			r.metrics, merr = d.request(http.MethodGet, "/v1/jobs/"+r.id+"/metrics", nil, http.StatusOK)
			return merr
		})
	}
	if err == nil && spec.Traced {
		err = timed("http.trace", func() error {
			body, err := d.request(http.MethodGet, "/v1/jobs/"+r.id+"/trace", nil, http.StatusOK)
			if err != nil {
				return err
			}
			_, events, err := obs.ReadTrace(bytes.NewReader(body))
			r.traceEvents = len(events)
			return err
		})
	}
	var tl serve.Timeline
	if err == nil && spans != nil {
		err = timed("http.timeline", func() error {
			body, err := d.request(http.MethodGet, "/v1/jobs/"+r.id+"/timeline", nil, http.StatusOK)
			if err != nil {
				return err
			}
			return json.Unmarshal(body, &tl)
		})
	}
	if spans != nil {
		job := spans.add("job", parent, r.id, start, time.Now())
		for _, c := range calls {
			id := spans.add(c.name, job, r.id, c.start, c.end)
			if c.name == "http.events" {
				r.queue, r.run = addServerSpans(spans, id, r.id, tl.Events)
			}
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s (%s): %w", spec.Key, r.id, err)
	}
	return r, nil
}

// addServerSpans records the server's queue and run intervals from a job
// timeline and returns their durations.
func addServerSpans(spans *spanLog, parent int, id string, evs []serve.TimelineEvent) (queue, run time.Duration) {
	at := map[string]time.Time{}
	for _, ev := range evs {
		at[ev.Event] = ev.Wall
	}
	if a, b := at["submitted"], at["dequeued"]; !a.IsZero() && !b.IsZero() {
		spans.add("serve.queue", parent, id, a, b)
		queue = b.Sub(a)
	}
	if a, b := at["started"], at["finished"]; !a.IsZero() && !b.IsZero() {
		spans.add("serve.run", parent, id, a, b)
		run = b.Sub(a)
	}
	return queue, run
}

// request makes one HTTP call and returns the body, failing unless the
// status is want.
func (d *daemon) request(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// waitDone follows the job's SSE stream until its finished event and
// fails unless the job ended done.
func (d *daemon) waitDone(id string) error {
	resp, err := d.client.Get(d.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	finished := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: finished" {
			finished = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && finished {
			var ev serve.TimelineEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return fmt.Errorf("events: %w", err)
			}
			if ev.State != serve.StateDone {
				return fmt.Errorf("job ended %s", ev.State)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	return errors.New("events: stream ended before the finished event")
}

// warmUp runs every catalogue request once, on as many clients as the
// daemon has workers, and keeps each reply as the reference.
func (d *daemon) warmUp(cat *jobCatalog, clients int) error {
	specs := cat.all()
	refs := make([]jobRef, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(clients)
	for range clients {
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := d.do(specs[i], nil, 0)
				if err != nil {
					errs[i] = err
					continue
				}
				m, err := obs.ReadMetrics(bytes.NewReader(r.metrics))
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", specs[i].Key, err)
					continue
				}
				refs[i] = jobRef{metrics: r.metrics, accesses: mmuAccesses(m.Counters),
					traceEvents: r.traceEvents, counters: m.Counters}
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, s := range specs {
		if errs[i] != nil {
			return errs[i]
		}
		d.refs[s.Key] = refs[i]
	}
	return nil
}

// runDaemon drives an in-process daemon in a closed loop: one client per
// CPU, each sending its next job only after the previous one finished,
// until the window closes. A job's latency is submit-to-done; each distinct
// request repeats many times in a window, and every job counts with its
// request's fastest latency, so latency_ms (the mean) and tail_ms describe
// the job mix on an undisturbed host. The mean, not the median: with 31
// request types the median lands on whichever type straddles 50% and jumps
// between neighbours. Every reply must equal the warm-up reply for the same
// request byte for byte, and every downloaded trace must parse.
func runDaemon(o options, spans *spanLog) (*report, error) {
	clients := runtime.NumCPU()
	var d *daemon
	var cat *jobCatalog
	var setups setupClock
	defer func() {
		if d != nil {
			_ = d.close() // every client has returned, so nothing is left to drain
		}
	}()
	for range max(o.size.setupReps, 1) {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			d = nil
		}
		if err := setups.time(func() error {
			var err error
			if cat, err = newCatalog(); err != nil {
				return err
			}
			d = startDaemon(clients)
			return d.warmUp(cat, clients)
		}); err != nil {
			return nil, err
		}
	}

	rep := newReport()
	rep.counts = map[string]uint64{}
	for _, ref := range d.refs {
		addCounts(rep.counts, ref.counters)
	}
	deck := newJobDeck(o.seed, cat, o.size.daemonJobs)
	var (
		mu         sync.Mutex
		done       []string // keys of the jobs that completed correctly
		lat        = map[string][]float64{}
		queue, run []float64
	)
	root := spans.begin("workload", 0, "daemon-mix")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(o.window)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := range clients {
		go func() {
			defer wg.Done()
			client := spans.begin("client", root, fmt.Sprintf("client-%d", c))
			defer spans.end(client)
			for first := true; first || time.Now().Before(deadline); first = false {
				spec, ok := deck.next()
				if !ok {
					return
				}
				r, err := d.do(spec, spans, client)
				ref := d.refs[spec.Key]
				mu.Lock()
				rep.attempted++
				switch {
				case err != nil:
					rep.fail("%v", err)
				case !bytes.Equal(r.metrics, ref.metrics):
					rep.fail("%s (%s): metrics differ from the warm-up reply", spec.Key, r.id)
				case r.traceEvents != ref.traceEvents:
					rep.fail("%s (%s): trace has %d events, warm-up had %d", spec.Key, r.id, r.traceEvents, ref.traceEvents)
				default:
					done = append(done, spec.Key)
					lat[spec.Key] = append(lat[spec.Key], r.latency.Seconds()*1e3)
					if spans != nil {
						queue = append(queue, r.queue.Seconds()*1e3)
						run = append(run, r.run.Seconds()*1e3)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)
	runtime.ReadMemStats(&m1)
	spans.end(root)
	if len(done) == 0 {
		return nil, fmt.Errorf("no job completed: %v", rep.failures)
	}

	jobs := make([]float64, len(done))
	var busy float64
	var accesses uint64
	for i, key := range done {
		jobs[i] = fastest(lat[key])
		busy += jobs[i]
		accesses += d.refs[key].accesses
	}
	tail, pct := tailPercentile(jobs)
	rep.metrics = map[string]float64{
		"latency_ms":    busy / float64(len(jobs)),
		"tail_ms":       tail,
		"ns_per_access": ratio(busy*1e6, float64(accesses)),
		"alloc_mib":     float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rep.attempted) / (1 << 20),
		"setup_s":       fastest(setups),
	}
	for key, times := range lat {
		rep.extra["serve.job_ms."+key] = fastest(times)
	}
	rep.extra["serve.jobs_per_s"] = float64(len(done)) / window.Seconds()
	if spans != nil {
		rep.extra["serve.queue_wait_ms"] = median(queue)
		rep.extra["serve.run_ms"] = median(run)
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d jobs of %d distinct requests on %d clients and %d workers, %.1f jobs/s",
			len(done), len(lat), clients, clients, rep.extra["serve.jobs_per_s"]),
		fmt.Sprintf("tail_ms = p%d of %d jobs", pct, len(done)))
	return rep, nil
}

// daemonSample is the accesses of the experiments the tenants run: the
// last 4096 translation events of each light experiment.
func daemonSample(o options) ([]obs.Event, error) {
	var light []bench.Experiment
	for _, e := range bench.All() {
		if e.Cost == bench.CostLight {
			light = append(light, e)
		}
	}
	return accessSample(light, 1, 4096)
}
