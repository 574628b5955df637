package stats

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounters(t *testing.T) {
	var c Counters
	c.Inc("a")
	c.Add("b", 5)
	c.Inc("a")
	if s := c.Snapshot(); s["a"] != 2 || s["b"] != 5 || len(s) != 2 {
		t.Errorf("counter values wrong: %v", c.String())
	}
	names := c.order
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("first-use order wrong: %v", names)
	}
	var d Counters
	d.Add("b", 1)
	d.Add("c", 3)
	c.Merge(&d)
	if s := c.Snapshot(); s["b"] != 6 || s["c"] != 3 {
		t.Errorf("Merge wrong: %v", c.String())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 5, 16, 17, 99, 500, 5000} {
		h.Observe(v)
	}
	if s := h.Snapshot(); s.Count != 7 || s.Min != 1 || s.Max != 5000 {
		t.Errorf("Count/Min/Max = %d/%d/%d", s.Count, s.Min, s.Max)
	}
	wantMean := float64(1+5+16+17+99+500+5000) / 7
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	if q := h.Quantile(0.5); q != 32 {
		t.Errorf("median bucket edge = %d, want 32", q)
	}
	if q := h.Quantile(0.99); q != 5000 {
		t.Errorf("p99 in the overflow bucket = %d, want the max 5000", q)
	}
}

// refBucket is the bucket the histogram's original edge scan chose: the
// first of the upper edges 2, 4, …, 4096 that v does not exceed, else the
// overflow bucket.
func refBucket(v uint64) int {
	edges := []uint64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	for j, e := range edges {
		if v <= e {
			return j
		}
	}
	return len(edges)
}

// TestHistogramBucketsMatchEdgeScan: Observe's log2 bucket is the one the
// edge scan picks for every value across all edges and their neighbours,
// and for the values whose arithmetic could wrap.
func TestHistogramBucketsMatchEdgeScan(t *testing.T) {
	vals := []uint64{1 << 40, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	for v := uint64(0); v <= 8193; v++ {
		vals = append(vals, v)
	}
	for _, v := range vals {
		var h Histogram
		h.Observe(v)
		want := refBucket(v)
		for i, c := range h.Snapshot().Counts {
			if (i == want) != (c == 1) {
				t.Fatalf("Observe(%d) filled buckets %v, want only bucket %d", v, h.Snapshot().Counts, want)
			}
		}
	}
}

func TestRatios(t *testing.T) {
	if Ratio(150, 100) != 150 {
		t.Error("Ratio wrong")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio must guard zero denominator")
	}
	if Overhead(120, 100) != 20 {
		t.Error("Overhead wrong")
	}
	// HPMP removes (slow-mid)/(slow-base): PMPT=200, HPMP=130, PMP=100 → 70%.
	if got := Reduction(200, 130, 100); math.Abs(got-70) > 1e-9 {
		t.Errorf("Reduction = %v, want 70", got)
	}
}

func TestAggregates(t *testing.T) {
	vals := []float64{1, 2, 4}
	if Mean(vals) != 7.0/3 {
		t.Error("Mean wrong")
	}
	min, max := MinMax(vals)
	if min != 1 || max != 4 {
		t.Error("MinMax wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty aggregates must be 0")
	}
}

// Property: Mean lies within [Min, Max] of the observed set.
func TestHistogramMeanBoundsQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(uint64(v))
		}
		return h.Mean() >= float64(h.Snapshot().Min) && h.Mean() <= float64(h.Max())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2.50")
	out := tb.Render()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Errorf("missing cells in:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Error("NumRows wrong")
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "Name,Value\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "A")
	tb.AddRow(`va"lue,with`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"va""lue,with"`) {
		t.Errorf("CSV escaping wrong: %q", csv)
	}
}

// TestCounterHandles covers the hot-path handle API: a handle is a stable
// pointer into the counter's storage, shared with the string API, and it
// registers the name immediately (at zero) so both access styles see one
// counter.
func TestCounterHandles(t *testing.T) {
	var c Counters
	h := c.Handle("hits")
	if got := c.Snapshot()["hits"]; got != 0 {
		t.Errorf("fresh handle value = %d, want 0", got)
	}
	if names := c.order; len(names) != 1 || names[0] != "hits" {
		t.Errorf("Handle must register the name: %v", names)
	}
	*h += 3
	c.Inc("hits")
	if got := c.Snapshot()["hits"]; got != 4 {
		t.Errorf("handle and string API must share storage: got %d, want 4", got)
	}
	if c.Handle("hits") != h {
		t.Error("Handle must return the same pointer on every call")
	}
	if got := c.String(); got != "hits=4" {
		t.Errorf("String() = %q, want \"hits=4\"", got)
	}

	// The pointer survives Merge (growth of the map).
	var o Counters
	for i := 0; i < 100; i++ {
		o.Inc(fmt.Sprintf("other.%d", i))
	}
	o.Add("hits", 7)
	c.Merge(&o)
	if *h != 11 {
		t.Errorf("handle stale after Merge: %d, want 11", *h)
	}
	*h++
	if got := c.Snapshot()["hits"]; got != 12 {
		t.Errorf("post-merge handle writes lost: %d, want 12", got)
	}
}

// TestEmptyRendering: zero-value Counters and empty tables must render
// cleanly (the runner prints them for experiments that record nothing).
func TestEmptyRendering(t *testing.T) {
	var c Counters
	if c.String() != "" {
		t.Errorf("empty Counters String() = %q, want \"\"", c.String())
	}
	if len(c.order) != 0 {
		t.Errorf("empty Counters order = %v", c.order)
	}
	c.Merge(&Counters{}) // merging empty into empty is a no-op

	tb := NewTable("Empty", "col")
	out := tb.Render()
	if !strings.Contains(out, "== Empty ==") || !strings.Contains(out, "col") {
		t.Errorf("empty table render:\n%s", out)
	}
	if csv := tb.CSV(); csv != "col\n" {
		t.Errorf("empty table CSV = %q", csv)
	}
	headerless := NewTable("")
	if headerless.Render() != "" {
		t.Errorf("headerless empty table must render to nothing: %q", headerless.Render())
	}
}

// TestZeroHistogram: an untouched histogram reports zeros everywhere
// instead of dividing by its zero count.
func TestZeroHistogram(t *testing.T) {
	var h Histogram
	want := HistogramSnapshot{
		Edges:  []uint64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		Counts: make([]uint64, 13),
	}
	if s := h.Snapshot(); !reflect.DeepEqual(s, want) || h.Mean() != 0 {
		t.Errorf("zero histogram: snapshot %+v mean %v, want %+v mean 0", s, h.Mean(), want)
	}
	if h.Quantile(0.5) != 0 || h.Quantile(0.99) != 0 {
		t.Errorf("zero histogram quantiles: p50=%d p99=%d", h.Quantile(0.5), h.Quantile(0.99))
	}
}

// TestHistogramMergeSnapshot: Merge folds one histogram into another
// bucket-by-bucket (with min/max/sum/count), and Snapshot round-trips the
// state as plain slices without aliasing the live histogram.
func TestHistogramMergeSnapshot(t *testing.T) {
	var a, b Histogram
	for _, v := range []uint64{3, 50} {
		a.Observe(v)
	}
	for _, v := range []uint64{4, 5000} {
		b.Observe(v)
	}
	a.Merge(&b)
	s := a.Snapshot()
	if s.Count != 4 || s.Sum != 5057 || s.Min != 3 || s.Max != 5000 {
		t.Errorf("merged stats: count=%d sum=%d min=%d max=%d", s.Count, s.Sum, s.Min, s.Max)
	}
	if len(s.Edges) != 12 || len(s.Counts) != 13 {
		t.Fatalf("snapshot shape: edges=%v counts=%v", s.Edges, s.Counts)
	}
	if want := []uint64{0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1}; !reflect.DeepEqual(s.Counts, want) {
		t.Errorf("snapshot counts = %v, want %v", s.Counts, want)
	}
	// Mutating the snapshot must not touch the histogram.
	s.Counts[1] = 999
	s.Edges[0] = 999
	if s2 := a.Snapshot(); s2.Counts[1] != 2 || s2.Edges[0] != 2 {
		t.Error("Snapshot aliased the histogram's state")
	}

	// Merging an empty histogram is a no-op, including min.
	before := a.Snapshot()
	a.Merge(new(Histogram))
	if after := a.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("empty merge changed state: %+v -> %+v", before, after)
	}
	// Merging into an empty histogram takes the source's min, not zero.
	var c Histogram
	c.Merge(&a)
	if got := c.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Errorf("merge into empty: %+v, want %+v", got, before)
	}
}

// TestHistogramObserveZeroAllocs pins the per-observation cost of the
// latency histograms now attached to every translation-path hot loop:
// Observe must be a pure in-place bucket increment.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	var h Histogram
	var v uint64
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v = (v + 97) % 8192
	})
	if allocs != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", allocs)
	}
}
