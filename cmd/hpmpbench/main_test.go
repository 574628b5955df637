package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every workload to what a unit test can afford.
func tinySizes() sizes {
	return sizes{
		evalIDs:      []string{"ext-svx", "scen-shootdown"},
		replayEvents: 20000,
		daemonJobs:   20,
		setupReps:    1,
		probeCalls:   1024,
		sampleCap:    4096,
	}
}

func tinyOptions(t *testing.T) options {
	t.Helper()
	d, err := loadDigests(committedDigests)
	if err != nil {
		t.Fatal(err)
	}
	return options{seed: 1, window: time.Millisecond, size: tinySizes(), digests: d}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := tinyOptions(t)
			if w.Name == "daemon-mix" {
				o.window = time.Minute // ends at the 20-job cap
			}
			rep, err := measure(w, o, false, "", &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
			}
			for name, v := range rep.metrics {
				if v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

func TestTracedRunReportsPerLayerMetrics(t *testing.T) {
	w, err := selectWorkloads("replay-walk")
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	spans := t.TempDir() + "/spans.json"
	rep, err := measure(w[0], tinyOptions(t), true, spans, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("failures: %v", rep.failures)
	}
	for _, name := range []string{"mmu.accesses", "ptw.walks", "pmpt.walks", "mmu.access_ns", "pmpt.walk_ns", "ptw.port_share"} {
		if rep.metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.metrics[name])
		}
	}
	if !strings.Contains(stderr.String(), "replay.chunk") {
		t.Errorf("self-time table lacks the replay.chunk span:\n%s", stderr.String())
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Schema != spanSchema || len(doc.Spans) == 0 {
		t.Fatalf("span file: schema %q, %d spans, err %v", doc.Schema, len(doc.Spans), err)
	}
}

func TestTamperedDigestFails(t *testing.T) {
	o := tinyOptions(t)
	tampered := *o.digests
	tampered.Eval = map[string]expDigest{}
	for k, v := range o.digests.Eval {
		tampered.Eval[k] = v
	}
	d := tampered.Eval["ext-svx"]
	d.Render = strings.Repeat("0", len(d.Render))
	tampered.Eval["ext-svx"] = d
	o.digests = &tampered
	rep, err := runEval(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || newResultLine(rep).Correct {
		t.Fatalf("a tampered digest left %d failures of %d", rep.failed, rep.attempted)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v\nwant %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v\nwant %+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, want %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct int
		value  float64
	}{
		{n: 1000, pct: 99, value: 990},
		{n: 999, pct: 98, value: 980},
		{n: 100, pct: 90, value: 90},
		{n: 20, pct: 50, value: 10},
		{n: 19, pct: 100, value: 19}, // too few samples for any percentile: the maximum
	} {
		if v, p := tailPercentile(seq(tc.n)); p != tc.pct || v != tc.value {
			t.Errorf("n=%d: got p%d = %v, want p%d = %v", tc.n, p, v, tc.pct, tc.value)
		}
	}
	if v, k := nearestRank([]float64{1, 2, 3, 4}, 50); v != 2 || k != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v (rank %d), want 2 (rank 2)", v, k)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestSeededInputs(t *testing.T) {
	a, b, c := walkStream(7, 5000), walkStream(7, 5000), walkStream(8, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Error("walkStream: the same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("walkStream: different seeds gave the same stream")
	}

	cat, err := newCatalog()
	if err != nil {
		t.Fatal(err)
	}
	deal := func(seed uint64) []string {
		deck := newJobDeck(seed, cat, 200)
		var keys []string
		for {
			spec, ok := deck.next()
			if !ok {
				return keys
			}
			keys = append(keys, spec.Key)
		}
	}
	x, y, z := deal(7), deal(7), deal(8)
	if len(x) != 200 || !reflect.DeepEqual(x, y) {
		t.Errorf("job deck: the same seed gave different sequences (%d jobs)", len(x))
	}
	if reflect.DeepEqual(x, z) {
		t.Error("job deck: different seeds gave the same sequence")
	}
	kinds := map[string]int{}
	for _, k := range x {
		kinds[strings.Split(k, "/")[0]]++
	}
	if kinds["run"] != 130 || kinds["replay"] != 40 || kinds["traced"] != 30 {
		t.Errorf("200 jobs split %v, want run 130, replay 40, traced 30", kinds)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "latency_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"faster", base, scale(0.8), "improved"},
		{"same", base, base, "no-worse"},
		{"slightly slower", base, scale(1.05), "no-worse"},
		{"slower", base, scale(1.3), "regressed"},
		{"noisy", noisy, scale(1.05), "unresolved"},
		{"too few pairs", base[:3], scale(0.8)[:3], "no-worse"},
	} {
		if got := judge(d, tc.base, tc.head).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
