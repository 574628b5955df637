package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"hpmp/internal/stats"
)

// MetricsSchema names the metrics-JSON format version; the schema test in
// internal/bench pins the field set emitted under it.
const MetricsSchema = "hpmp-metrics/v1"

// Metrics is one experiment's end-of-run observability snapshot: the merged
// simulator counters, derived rates, and wall time, in a form that
// marshals directly to the documented JSON schema and renders as
// Prometheus text exposition format.
type Metrics struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Title      string `json:"title,omitempty"`
	// Figure is the paper figure/table the experiment regenerates.
	Figure string `json:"figure,omitempty"`
	Status string `json:"status"`
	Quick  bool   `json:"quick"`
	// WallSeconds is the experiment's wall-clock duration.
	WallSeconds float64 `json:"wall_seconds"`
	// Counters is the merged counter snapshot of every system the
	// experiment booted.
	Counters map[string]uint64 `json:"counters"`
	// Derived holds rates computed from Counters (hit ratios, per-level
	// data distribution); see DeriveRates for the catalogue.
	Derived map[string]float64 `json:"derived"`
	// Histograms holds the cycle-latency distributions recorded on the
	// translation path (mmu.access_latency, ptw.walk_latency,
	// pmptw.walk_latency, hpmp.check_latency), keyed by family. The field
	// is optional, so the schema stays hpmp-metrics/v1: snapshots written
	// before histogram wiring simply lack it.
	Histograms map[string]stats.HistogramSnapshot `json:"histograms,omitempty"`
	// Trace summarizes the event tracer when one was attached.
	Trace *TraceStats `json:"trace,omitempty"`
}

// TraceStats summarizes a tracer for the metrics snapshot.
type TraceStats struct {
	Seen        uint64 `json:"seen"`
	Sampled     uint64 `json:"sampled"`
	Kept        int    `json:"kept"`
	SampleEvery int    `json:"sample_every"`
}

// NewMetrics builds a snapshot over a counter map, filling Schema and
// Derived. Callers set the identification and timing fields.
func NewMetrics(experiment string, counters map[string]uint64) *Metrics {
	return &Metrics{
		Schema:     MetricsSchema,
		Experiment: experiment,
		Counters:   counters,
		Derived:    DeriveRates(counters),
	}
}

// SetTracer records a tracer's summary into the snapshot.
func (m *Metrics) SetTracer(t *Tracer) {
	if t == nil {
		return
	}
	m.Trace = &TraceStats{
		Seen:        t.Seen(),
		Sampled:     t.Sampled(),
		Kept:        t.Kept(),
		SampleEvery: t.SampleEvery(),
	}
}

// ratio returns num/(num+miss) guarded against an empty denominator.
func ratio(num, den uint64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return float64(num) / float64(den), true
}

// DeriveRates computes the derived metrics the snapshot carries alongside
// the raw counters:
//
//	ptw.pwc_hit_rate        PWC hits / PTE lookups
//	pmptw.cache_hit_rate    PMPTW-cache hits / pmpte lookups
//	mmu.data_<level>_frac   share of data references served per cache level
//	mmu.fault_rate          faulted accesses / completed walks
//
// Rates whose denominator is zero are omitted rather than reported as 0,
// so a missing key means "not exercised", never "never hit".
func DeriveRates(c map[string]uint64) map[string]float64 {
	out := make(map[string]float64)
	if r, ok := ratio(c["ptw.pwc_hit"], c["ptw.pwc_hit"]+c["ptw.pte_fetch"]); ok {
		out["ptw.pwc_hit_rate"] = r
	}
	if r, ok := ratio(c["pmptw.cache_hit"], c["pmptw.cache_hit"]+c["pmptw.mem_ref"]); ok {
		out["pmptw.cache_hit_rate"] = r
	}
	var data uint64
	for k, v := range c {
		if strings.HasPrefix(k, "mmu.data_") {
			data += v
		}
	}
	if data > 0 {
		for k, v := range c {
			if strings.HasPrefix(k, "mmu.data_") {
				out[k+"_frac"] = float64(v) / float64(data)
			}
		}
	}
	walks := c["ptw.walk_ok"] + c["ptw.page_fault"] + c["ptw.access_fault"]
	faults := c["mmu.page_fault"] + c["mmu.prot_fault"] +
		c["mmu.access_fault_pt"] + c["mmu.access_fault_data"] + c["mmu.access_fault_inline"]
	if r, ok := ratio(faults, walks); ok {
		out["mmu.fault_rate"] = r
	}
	return out
}

// WriteJSON emits the snapshot as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadMetrics parses one hpmp-metrics/v1 snapshot, rejecting other
// schemas. It is the read side of WriteJSON, shared by the diff engine and
// hpmpviz.
func ReadMetrics(r io.Reader) (*Metrics, error) {
	var m Metrics
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("obs: parsing metrics: %w", err)
	}
	if m.Schema != MetricsSchema {
		return nil, fmt.Errorf("obs: metrics schema %q, want %q", m.Schema, MetricsSchema)
	}
	return &m, nil
}

// PromEscape escapes a string for use inside a Prometheus label value.
// Counter names ride in labels under fixed metric families, so scrape
// configs need no per-counter rules. Exported for callers that aggregate
// many Metrics into one exposition (a scrape page may carry each
// # HELP/# TYPE header only once, so the daemon cannot simply concatenate
// WritePrometheus outputs and must write labels itself).
func PromEscape(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}

// promName sanitizes a histogram family key into a legal Prometheus metric
// name: every character outside [a-zA-Z0-9_] becomes '_' (dots and dashes
// are the ones our keys actually carry), and a leading digit gets an
// underscore prefix.
func promName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// writePromHistogram renders one histogram family in the native Prometheus
// histogram exposition: cumulative _bucket samples with le edges (plus
// +Inf), then _sum and _count. The family name derives from the snapshot
// key via promName, so "mmu.access_latency" becomes
// hpmp_mmu_access_latency_*.
func writePromHistogram(b *strings.Builder, exp, key string, h stats.HistogramSnapshot) {
	name := "hpmp_" + promName(key)
	fmt.Fprintf(b, "# HELP %s Cycle-latency histogram %s.\n", name, key)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Edges) {
			le = fmt.Sprintf("%d", h.Edges[i])
		}
		fmt.Fprintf(b, "%s_bucket{experiment=%q,le=%q} %d\n", name, exp, le, cum)
	}
	fmt.Fprintf(b, "%s_sum{experiment=%q} %d\n", name, exp, h.Sum)
	fmt.Fprintf(b, "%s_count{experiment=%q} %d\n", name, exp, h.Count)
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format (one gauge family per section, the experiment and counter names as
// labels), sorted so output is deterministic.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	exp := PromEscape(m.Experiment)
	var b strings.Builder
	b.WriteString("# HELP hpmp_experiment_wall_seconds Experiment wall-clock duration.\n")
	b.WriteString("# TYPE hpmp_experiment_wall_seconds gauge\n")
	fmt.Fprintf(&b, "hpmp_experiment_wall_seconds{experiment=%q} %g\n", exp, m.WallSeconds)

	names := make([]string, 0, len(m.Counters))
	for k := range m.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	b.WriteString("# HELP hpmp_counter Simulator counter at end of experiment.\n")
	b.WriteString("# TYPE hpmp_counter gauge\n")
	for _, k := range names {
		fmt.Fprintf(&b, "hpmp_counter{experiment=%q,counter=%q} %d\n", exp, PromEscape(k), m.Counters[k])
	}

	derived := make([]string, 0, len(m.Derived))
	for k := range m.Derived {
		derived = append(derived, k)
	}
	sort.Strings(derived)
	b.WriteString("# HELP hpmp_derived Derived rate computed from simulator counters.\n")
	b.WriteString("# TYPE hpmp_derived gauge\n")
	for _, k := range derived {
		fmt.Fprintf(&b, "hpmp_derived{experiment=%q,metric=%q} %g\n", exp, PromEscape(k), m.Derived[k])
	}

	hists := make([]string, 0, len(m.Histograms))
	for k := range m.Histograms {
		hists = append(hists, k)
	}
	sort.Strings(hists)
	for _, k := range hists {
		writePromHistogram(&b, exp, k, m.Histograms[k])
	}

	if m.Trace != nil {
		b.WriteString("# HELP hpmp_trace_events Trace events seen/sampled/kept by the ring tracer.\n")
		b.WriteString("# TYPE hpmp_trace_events gauge\n")
		fmt.Fprintf(&b, "hpmp_trace_events{experiment=%q,stage=\"seen\"} %d\n", exp, m.Trace.Seen)
		fmt.Fprintf(&b, "hpmp_trace_events{experiment=%q,stage=\"sampled\"} %d\n", exp, m.Trace.Sampled)
		fmt.Fprintf(&b, "hpmp_trace_events{experiment=%q,stage=\"kept\"} %d\n", exp, m.Trace.Kept)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
