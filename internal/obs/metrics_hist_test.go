package obs

import (
	"bytes"
	"strings"
	"testing"

	"hpmp/internal/stats"
)

// histSnap builds a snapshot by observing each value into a fresh
// default-latency histogram.
func histSnap(values ...uint64) stats.HistogramSnapshot {
	var h stats.Histogram
	for _, v := range values {
		h.Observe(v)
	}
	return h.Snapshot()
}

// TestPromName pins the metric-name sanitizer: dots and dashes (the
// characters our histogram keys actually carry) become underscores, and a
// leading digit is prefixed so the name stays legal.
func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"mmu.access_latency": "mmu_access_latency",
		"ext-hints.latency":  "ext_hints_latency",
		"3way":               "_3way",
		"ok_name":            "ok_name",
		"a b/c":              "a_b_c",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPrometheusHistogramShape: the native histogram exposition carries
// cumulative _bucket samples ending in +Inf, then _sum and _count, under a
// sanitized family name.
func TestPrometheusHistogramShape(t *testing.T) {
	m := NewMetrics("fig10", map[string]uint64{"mmu.access": 1})
	m.Histograms = map[string]stats.HistogramSnapshot{
		"mmu.access_latency": histSnap(1, 3, 3, 100, 9999),
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hpmp_mmu_access_latency histogram",
		`hpmp_mmu_access_latency_bucket{experiment="fig10",le="2"} 1`,
		`hpmp_mmu_access_latency_bucket{experiment="fig10",le="4"} 3`,
		`hpmp_mmu_access_latency_bucket{experiment="fig10",le="128"} 4`,
		`hpmp_mmu_access_latency_bucket{experiment="fig10",le="4096"} 4`,
		`hpmp_mmu_access_latency_bucket{experiment="fig10",le="+Inf"} 5`,
		`hpmp_mmu_access_latency_sum{experiment="fig10"} 10106`,
		`hpmp_mmu_access_latency_count{experiment="fig10"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the +Inf sample is the total count and
	// appears after every finite edge.
	if strings.Index(out, `le="+Inf"`) < strings.Index(out, `le="4096"`) {
		t.Error("+Inf bucket must come after the last finite edge")
	}
}

// TestPrometheusEdgeCases: rendering stays well-formed and deterministic
// with an empty counter map, a zero-count histogram, and keys needing
// sanitization.
func TestPrometheusEdgeCases(t *testing.T) {
	m := NewMetrics("edge", map[string]uint64{})
	m.Histograms = map[string]stats.HistogramSnapshot{
		"weird-key.with-dashes": histSnap(),
		"plain":                 histSnap(7),
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Empty counter map: the family header still renders, no samples, no
	// panic.
	if !strings.Contains(out, "# TYPE hpmp_counter gauge") {
		t.Errorf("counter family header missing:\n%s", out)
	}
	if strings.Contains(out, "hpmp_counter{") {
		t.Errorf("empty counter map produced samples:\n%s", out)
	}
	// Zero-count histogram: every cumulative bucket and the count are 0.
	for _, want := range []string{
		`hpmp_weird_key_with_dashes_bucket{experiment="edge",le="+Inf"} 0`,
		`hpmp_weird_key_with_dashes_count{experiment="edge"} 0`,
		`hpmp_plain_bucket{experiment="edge",le="8"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The original key may appear in free-text HELP, but never as a metric
	// name.
	if strings.Contains(out, "hpmp_weird-key") {
		t.Errorf("unsanitized metric name leaked into output:\n%s", out)
	}
	// Deterministic across renders despite map-ordered inputs.
	var buf2 bytes.Buffer
	if err := m.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("prometheus rendering with histograms is not deterministic")
	}
}

// TestReadMetricsRoundTrip: WriteJSON then ReadMetrics reproduces the
// snapshot, histograms included; a wrong schema is rejected.
func TestReadMetricsRoundTrip(t *testing.T) {
	m := NewMetrics("rt", map[string]uint64{"mmu.access": 9})
	m.Status = "ok"
	m.WallSeconds = 0.5
	m.Histograms = map[string]stats.HistogramSnapshot{
		"ptw.walk_latency": histSnap(4, 16),
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "rt" || got.Counters["mmu.access"] != 9 || got.WallSeconds != 0.5 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	h, ok := got.Histograms["ptw.walk_latency"]
	if !ok || h.Count != 2 || h.Sum != 20 || h.Min != 4 || h.Max != 16 {
		t.Errorf("round trip lost histogram: %+v", h)
	}

	if _, err := ReadMetrics(strings.NewReader(`{"schema":"hpmp-metrics/v99"}`)); err == nil {
		t.Error("ReadMetrics accepted a wrong schema")
	}
	if _, err := ReadMetrics(strings.NewReader(`not json`)); err == nil {
		t.Error("ReadMetrics accepted malformed input")
	}
}
