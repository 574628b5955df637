package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hpmp/internal/addr"
	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/simcfg"
)

// testServer boots a daemon with its HTTP front end and registers
// cleanup. Options default small so tests stay fast.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := ctxWithTimeout(10 * time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding accepted job: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// waitTerminal polls until the job leaves queued/running.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Status{}
}

func getBody(t *testing.T, ts *httptest.Server, path string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: HTTP %d, want %d (%s)", path, resp.StatusCode, wantCode, data)
	}
	return data
}

// lightJob is the cheapest real run request: one light-tier scenario at
// quick sizes (a few milliseconds of simulation).
const lightJob = `{"kind":"run","experiments":["scen-shootdown"],"quick":true}`

func TestJobLifecycle(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, QueueDepth: 4})
	st, resp := postJob(t, ts, lightJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.ID != "job-1" || st.Kind != "run" {
		t.Fatalf("unexpected accept document: %+v", st)
	}
	if st.Machine.Platform != "rocket" || st.Machine.MemSize == 0 {
		t.Fatalf("defaults not applied to machine: %+v", st.Machine)
	}

	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Started == nil || fin.Finished == nil {
		t.Fatalf("terminal job must carry timestamps: %+v", fin)
	}
	if len(fin.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(fin.Results))
	}
	m := fin.Results[0]
	if m.Schema != obs.MetricsSchema || m.Experiment != "scen-shootdown" || m.Status != "ok" {
		t.Fatalf("bad result metrics: %+v", m)
	}
	if m.WallSeconds != 0 {
		t.Fatal("result metrics must zero wall time (it lives in the status envelope)")
	}
	if len(m.Counters) == 0 {
		t.Fatal("result metrics carry no counters")
	}

	// The raw metrics endpoint serves a single readable snapshot.
	raw := getBody(t, ts, "/v1/jobs/"+st.ID+"/metrics", http.StatusOK)
	got, err := obs.ReadMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("metrics endpoint not hpmp-metrics/v1: %v", err)
	}
	if got.Experiment != "scen-shootdown" {
		t.Fatalf("metrics endpoint experiment %q", got.Experiment)
	}
}

// invalidJobs is one request body per way a submission can be refused
// with 400, including each workload knob one above its ceiling.
func invalidJobs(t testing.TB) []struct{ name, body string } {
	cases := []struct{ name, body string }{
		{"bad-kind", `{"kind":"benchmark"}`},
		{"no-experiments", `{"kind":"run"}`},
		{"unknown-experiment", `{"kind":"run","experiments":["fig99"]}`},
		{"bad-machine-mem", `{"kind":"run","experiments":["fig10"],"machine":{"mem_mib":8}}`},
		{"huge-machine-mem", `{"kind":"run","experiments":["fig10"],"machine":{"mem_mib":1048576}}`},
		{"bad-machine-mode", `{"kind":"run","experiments":["fig10"],"machine":{"mode":"sgx"}}`},
		{"bad-machine-depth", `{"kind":"run","experiments":["fig10"],"machine":{"mode":"pmp","table_depth":3}}`},
		{"unknown-field", `{"kind":"run","experiments":["fig10"],"machne":{}}`},
		{"unknown-machine-field", `{"kind":"run","experiments":["fig10"],"machine":{"l2tlb_entries":4}}`},
		{"negative-workload", `{"kind":"run","experiments":["fig10"],"workload":{"redis_keyspace":-1}}`},
		{"replay-no-trace", `{"kind":"replay"}`},
		{"replay-bad-trace", `{"kind":"replay","trace_jsonl":"not json"}`},
		{"replay-l2tlb-not-pow2", replayJob(t, `{"l2tlb":3}`)},
		{"not-json", `kind=run`},
	}
	for _, c := range workloadCeilings {
		cases = append(cases, struct{ name, body string }{"over-ceiling-" + c.knob, workloadJob(c.knob, c.max+1)})
	}
	return cases
}

func TestSubmitRejectsInvalid(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 2})
	for _, tc := range invalidJobs(t) {
		_, resp := postJob(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Nothing invalid may have consumed a job slot or an ID.
	st, resp := postJob(t, ts, lightJob)
	if resp.StatusCode != http.StatusAccepted || st.ID != "job-1" {
		t.Fatalf("first valid job got %q (HTTP %d), want job-1", st.ID, resp.StatusCode)
	}
}

// workloadCeilings is each WorkloadScale knob's JSON name and ceiling.
var workloadCeilings = []struct {
	knob string
	max  int
}{
	{"redis_keyspace", simcfg.MaxRedisKeyspace},
	{"redis_requests", simcfg.MaxRedisRequests},
	{"serverless_reps", simcfg.MaxServerlessReps},
	{"cold_starts", simcfg.MaxColdStarts},
}

// workloadJob is a run job body setting one workload knob.
func workloadJob(knob string, v int) string {
	return fmt.Sprintf(`{"kind":"run","experiments":["fig10"],"workload":{%q:%d}}`, knob, v)
}

// A run job's experiments pick their own platform, mode and geometry, so a
// machine field other than mem_mib would be validated, echoed back, and
// ignored. The daemon refuses it instead; memory alone is still accepted.
func TestRunJobRejectsIgnoredMachineFields(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 2})
	body := `{"kind":"run","experiments":["scen-shootdown"],"quick":true,"machine":{"mode":"pmp","pwc":32}}`
	if _, resp := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("run job with machine.mode/pwc: HTTP %d, want 400", resp.StatusCode)
	}
	st, resp := postJob(t, ts, `{"kind":"run","experiments":["scen-shootdown"],"quick":true,"machine":{"mem_mib":256}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run job with machine.mem_mib: HTTP %d, want 202", resp.StatusCode)
	}
	if st = waitTerminal(t, ts, st.ID); st.State != StateDone || st.Machine.MemSize != 256*addr.MiB {
		t.Fatalf("mem_mib run job: state %s (%s), machine %v", st.State, st.Error, st.Machine)
	}
}

// replayJob returns the body of a replay job on the given machine config
// whose trace is one access.
func replayJob(t testing.TB, machine string) string {
	t.Helper()
	tr := obs.NewTracer(4, 1)
	tr.Emit(obs.Event{Kind: obs.KindAccess, VA: 0x1000_0000, PA: 0x80_0000})
	var trace bytes.Buffer
	if err := obs.WriteTrace(&trace, "replay", tr); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"kind": "replay", "trace_jsonl": trace.String(),
		"machine": json.RawMessage(machine)})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// A requested trace ring above obs.MaxRing is refused before any job is
// queued: the ring is allocated in full when the job starts.
func TestResolveBoundsTraceKeep(t *testing.T) {
	for _, kind := range []string{"run", "replay"} {
		req := Request{Kind: kind, Experiments: []string{"fig10"}, Trace: true, TraceKeep: obs.MaxRing}
		if kind == "replay" {
			if err := json.Unmarshal([]byte(replayJob(t, `{}`)), &req); err != nil {
				t.Fatal(err)
			}
		}
		if err := (&Job{Request: req}).resolve(); err != nil {
			t.Errorf("%s job keeping obs.MaxRing events rejected: %v", kind, err)
		}
		req.TraceKeep = obs.MaxRing + 1
		err := (&Job{Request: req}).resolve()
		if err == nil || !strings.Contains(err.Error(), "trace_keep") {
			t.Errorf("%s job keeping obs.MaxRing+1 events: error %v, want a trace_keep bound", kind, err)
		}
	}
}

// A traced replay job that leaves trace_keep at 0 sizes its ring from the
// trace's length, but never past obs.MaxRing: the ring is allocated in
// full before the replay, and a request near the body cap would otherwise
// ask for hundreds of megabytes. A full ring keeps the newest events.
func TestReplayDefaultRingIsBounded(t *testing.T) {
	const n = 10000 // each replayed access emits several events
	tr := obs.NewTracer(n, 1)
	for i := 0; i < n; i++ {
		tr.Emit(obs.Event{Kind: obs.KindAccess, VA: addr.VA(0x1000_0000 + i*addr.PageSize), PA: addr.PA(0x80_0000 + i*addr.PageSize)})
	}
	var trace bytes.Buffer
	if err := obs.WriteTrace(&trace, "replay", tr); err != nil {
		t.Fatal(err)
	}
	j := &Job{Request: Request{Kind: "replay", Trace: true, TraceJSONL: trace.String()}}
	j.initEvents(8, time.Now)
	if err := j.resolve(); err != nil {
		t.Fatal(err)
	}
	if err := j.executeReplay(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := j.traces["replay"]
	t.Logf("%d events seen, %d kept", got.Seen(), got.Kept())
	if got.Seen() <= obs.MaxRing {
		t.Fatalf("the replay emitted %d events, want more than obs.MaxRing (%d) for the bound to matter", got.Seen(), obs.MaxRing)
	}
	if got.Kept() > obs.MaxRing {
		t.Errorf("a replay job with the default trace_keep kept %d events, want at most obs.MaxRing (%d)", got.Kept(), obs.MaxRing)
	}
}

// The scalar replay drain is gone: a machine config that still asks for it
// is an unknown field, rejected at submit time like any other, while the
// same replay job without it is accepted.
func TestReplayJobRejectsScalar(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 2})
	if _, resp := postJob(t, ts, replayJob(t, `{"mode":"pmp","scalar":true}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replay job with machine.scalar: HTTP %d, want 400", resp.StatusCode)
	}
	st, resp := postJob(t, ts, replayJob(t, `{"mode":"pmp"}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("replay job without machine.scalar: HTTP %d, want 202", resp.StatusCode)
	}
	if st = waitTerminal(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("replay job: %s (%s)", st.State, st.Error)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 1})
	for _, path := range []string{"/v1/jobs/job-9", "/v1/jobs/job-9/metrics", "/v1/jobs/job-9/trace"} {
		getBody(t, ts, path, http.StatusNotFound)
	}
}

// TestConcurrentJobsIsolated proves per-tenant isolation: eight identical
// jobs running concurrently each report exactly the counters a solo run
// reports — no tenant's stats bleed into another's.
func TestConcurrentJobsIsolated(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 8, QueueDepth: 16})

	solo, _ := postJob(t, ts, lightJob)
	ref := waitTerminal(t, ts, solo.ID)
	if ref.State != StateDone {
		t.Fatalf("reference job: %s (%s)", ref.State, ref.Error)
	}

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postJob(t, ts, lightJob)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("job %d: HTTP %d", i, resp.StatusCode)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue
		}
		st := waitTerminal(t, ts, id)
		if st.State != StateDone {
			t.Errorf("job %d (%s): %s (%s)", i, id, st.State, st.Error)
			continue
		}
		if len(st.Results) != 1 {
			t.Errorf("job %d: %d results", i, len(st.Results))
			continue
		}
		if !reflect.DeepEqual(st.Results[0].Counters, ref.Results[0].Counters) {
			t.Errorf("job %d (%s): counters differ from the solo run — stats interleaved", i, id)
		}
	}
}

// TestJobsNeverShareSimulations: the bench run memo lives for one job, so
// a job running fig3b alone simulates its own machines even after other
// jobs simulated the same ones — fig11bc's BOOM GAP systems, and an
// earlier fig3b job's. It allocates about what the first fig3b job did
// (a shared simulation would allocate almost nothing) and reports the same
// counters.
func TestJobsNeverShareSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs GAP at quick size")
	}
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 4})
	run := func(body string) (Status, uint64) {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, _ := postJob(t, ts, body)
		fin := waitTerminal(t, ts, st.ID)
		runtime.ReadMemStats(&m1)
		if fin.State != StateDone {
			t.Fatalf("%s: %s (%s)", body, fin.State, fin.Error)
		}
		return fin, m1.TotalAlloc - m0.TotalAlloc
	}
	const fig3b = `{"kind":"run","experiments":["fig3b"],"quick":true}`
	first, firstAlloc := run(fig3b)
	run(`{"kind":"run","experiments":["fig11bc"],"quick":true}`)
	second, secondAlloc := run(fig3b)
	t.Logf("fig3b jobs allocated %d and %d KiB", firstAlloc>>10, secondAlloc>>10)
	if secondAlloc < firstAlloc/2 {
		t.Errorf("the second fig3b job allocated %d KiB, the first %d KiB: it reused another job's simulation",
			secondAlloc>>10, firstAlloc>>10)
	}
	if !reflect.DeepEqual(first.Results[0].Counters, second.Results[0].Counters) {
		t.Error("the two fig3b jobs report different counters")
	}
}

// TestDeterministicResults pins the acceptance criterion: identical
// submissions produce byte-identical hpmp-metrics/v1 documents.
func TestDeterministicResults(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, QueueDepth: 8})
	body := `{"kind":"run","experiments":["scen-shootdown","scen-aging"],"quick":true,"trace":true}`
	a, _ := postJob(t, ts, body)
	b, _ := postJob(t, ts, body)
	for _, id := range []string{a.ID, b.ID} {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("%s: %s (%s)", id, st.State, st.Error)
		}
	}
	ma := getBody(t, ts, "/v1/jobs/"+a.ID+"/metrics", http.StatusOK)
	mb := getBody(t, ts, "/v1/jobs/"+b.ID+"/metrics", http.StatusOK)
	if !bytes.Equal(ma, mb) {
		t.Fatalf("identical submissions produced different metrics:\n--- %s\n%s\n--- %s\n%s", a.ID, ma, b.ID, mb)
	}
}

// TestTraceRoundTrip: a traced run job's capture downloads as
// hpmp-trace/v1 and replays through a replay job submitted back to the
// same daemon — the serving loop the daemon exists for.
func TestTraceRoundTrip(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, QueueDepth: 8})
	st, _ := postJob(t, ts, `{"kind":"run","experiments":["scen-shootdown"],"quick":true,"trace":true}`)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("run job: %s (%s)", fin.State, fin.Error)
	}
	if len(fin.Traces) != 1 || fin.Traces[0] != "scen-shootdown" {
		t.Fatalf("trace listing: %v", fin.Traces)
	}

	raw := getBody(t, ts, "/v1/jobs/"+st.ID+"/trace", http.StatusOK)
	h, events, err := obs.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("downloaded trace is not hpmp-trace/v1: %v", err)
	}
	if h.Source != st.ID+"/scen-shootdown" || len(events) == 0 {
		t.Fatalf("trace header/source wrong: %+v, %d events", h, len(events))
	}

	// Feed the capture back as a replay job, twice, and require
	// byte-identical replay metrics.
	req := map[string]any{"kind": "replay", "id": "rt", "trace_jsonl": string(raw)}
	body, _ := json.Marshal(req)
	r1, _ := postJob(t, ts, string(body))
	r2, _ := postJob(t, ts, string(body))
	for _, id := range []string{r1.ID, r2.ID} {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Fatalf("replay %s: %s (%s)", id, st.State, st.Error)
		}
	}
	m1 := getBody(t, ts, "/v1/jobs/"+r1.ID+"/metrics", http.StatusOK)
	m2 := getBody(t, ts, "/v1/jobs/"+r2.ID+"/metrics", http.StatusOK)
	if !bytes.Equal(m1, m2) {
		t.Fatal("identical replay submissions produced different metrics")
	}
	got, err := obs.ReadMetrics(bytes.NewReader(m1))
	if err != nil {
		t.Fatalf("replay metrics: %v", err)
	}
	if got.Experiment != "rt" {
		t.Fatalf("replay metrics source %q, want rt", got.Experiment)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 1})
	raw := getBody(t, ts, "/v1/experiments", http.StatusOK)
	var got []experimentInfo
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("registry: %v", err)
	}
	all := bench.All()
	if len(got) != len(all) {
		t.Fatalf("registry serves %d experiments, bench has %d", len(got), len(all))
	}
	for i, e := range all {
		if got[i].ID != e.ID || got[i].Cost != string(e.Cost) {
			t.Fatalf("registry[%d] = %+v, want %s/%s", i, got[i], e.ID, e.Cost)
		}
	}
}

// TestPrometheusWhileRunning scrapes /metrics during an in-flight job and
// checks the page is well-formed exposition text with the daemon and
// tenant families present — including the counters of an experiment the
// running job has already committed.
func TestPrometheusWhileRunning(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	s.exec = func(ctx context.Context, j *Job) error {
		j.commit(obs.NewMetrics("stub-exp", map[string]uint64{"mmu.access": 42}))
		close(started)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	st, _ := postJob(t, ts, lightJob)
	<-started

	page := string(getBody(t, ts, "/metrics", http.StatusOK))
	if err := checkPrometheus(page); err != nil {
		t.Fatalf("scrape invalid while job runs: %v\n%s", err, page)
	}
	for _, want := range []string{
		`hpmpsimd_jobs{state="running"} 1`,
		"hpmpsimd_queue_capacity 4",
		"hpmpsimd_workers 1",
		`hpmp_tenant_counter{job="job-1",experiment="stub-exp",counter="mmu.access"} 42`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	close(release)
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("stub job: %s", fin.State)
	}
	if err := checkPrometheus(string(getBody(t, ts, "/metrics", http.StatusOK))); err != nil {
		t.Fatalf("scrape invalid after completion: %v", err)
	}
}

// sampleLine matches one Prometheus exposition sample:
// name{labels} value — labels optional, value a float.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$`)

// checkPrometheus validates exposition-format invariants: every line is a
// well-formed comment or sample, every sample's family has exactly one
// preceding # TYPE, and no family is declared twice.
func checkPrometheus(page string) error {
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if typed[parts[2]] {
				return fmt.Errorf("line %d: family %s declared twice", ln+1, parts[2])
			}
			typed[parts[2]] = true
		case strings.HasPrefix(line, "# HELP "):
			if len(strings.Fields(line)) < 3 {
				return fmt.Errorf("line %d: malformed HELP: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "#"):
			// free comment
		default:
			if !sampleLine.MatchString(line) {
				return fmt.Errorf("line %d: malformed sample: %q", ln+1, line)
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			// Histogram samples carry the family name plus a fixed suffix.
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, suf) {
					base = strings.TrimSuffix(name, suf)
					break
				}
			}
			if !typed[name] && !typed[base] {
				return fmt.Errorf("line %d: sample %s precedes its # TYPE", ln+1, name)
			}
		}
	}
	return nil
}

func ctxWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
