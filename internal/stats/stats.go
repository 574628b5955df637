// Package stats provides the counters, histograms, and table-rendering
// helpers that every experiment in the benchmark harness shares. All state is
// deterministic — no wall-clock time is consulted — so experiment output is
// reproducible run to run.
//
// Concurrency: the package keeps no package-level mutable state, and the
// individual types (Counters, Histogram, Table) are not internally
// synchronized. The harness's concurrency model is ownership-based: each
// experiment goroutine builds and mutates its own instances, and
// cross-goroutine aggregation (Merge) happens only after the owning
// goroutine has finished — the pattern the parallel runner in
// internal/bench follows and `go test -race` verifies.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Counters is an ordered set of named uint64 counters. The zero value is
// ready to use.
//
// Two access styles share the same storage: the ordered string API
// (Add/Inc/Get, used by tables, CSV snapshots, and cold paths) and
// pre-resolved handles (Handle, used by the simulator's per-access hot
// paths, which must not pay a map lookup or allocate a key per bump).
type Counters struct {
	order []string
	vals  map[string]*uint64
}

// Handle returns a stable pointer to the named counter's value, creating
// the counter (at zero, registered in first-use order) if needed. The
// pointer stays valid across Reset and Merge, so hot paths resolve it once
// at construction time and bump it with a plain increment thereafter.
//
// Handles follow the package's ownership model: a handle may only be
// dereferenced by the goroutine that owns the Counters instance.
func (c *Counters) Handle(name string) *uint64 {
	if c.vals == nil {
		c.vals = make(map[string]*uint64)
	}
	if p, ok := c.vals[name]; ok {
		return p
	}
	p := new(uint64)
	c.vals[name] = p
	c.order = append(c.order, name)
	return p
}

// Add increments the named counter by n, creating it on first use.
func (c *Counters) Add(name string, n uint64) { *c.Handle(name) += n }

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { *c.Handle(name)++ }

// Snapshot copies every counter into a fresh map. The map is independent of
// the live counters, so it can cross goroutines freely — the export path
// (metrics JSON, Prometheus text) is built on it.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.order))
	for _, name := range c.order {
		out[name] = *c.vals[name]
	}
	return out
}

// Merge adds every counter of o into c.
func (c *Counters) Merge(o *Counters) {
	for _, name := range o.order {
		c.Add(name, *o.vals[name])
	}
}

// String renders the counters as "name=value" pairs in first-use order.
func (c *Counters) String() string {
	var b strings.Builder
	for i, name := range c.order {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, *c.vals[name])
	}
	return b.String()
}

// Histogram is a fixed-bucket latency histogram with power-of-two-ish bucket
// edges, used for cycle-latency distributions.
type Histogram struct {
	edges  []uint64
	counts []uint64
	sum    uint64
	n      uint64
	max    uint64
	min    uint64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// edges; values above the last edge land in an implicit overflow bucket.
func NewHistogram(edges ...uint64) *Histogram {
	if !sort.SliceIsSorted(edges, func(i, j int) bool { return edges[i] < edges[j] }) {
		panic("stats: histogram edges must be ascending")
	}
	return &Histogram{edges: edges, counts: make([]uint64, len(edges)+1)}
}

// DefaultLatencyHistogram covers 1 cycle to ~4K cycles, which spans every
// latency the simulator produces.
func DefaultLatencyHistogram() *Histogram {
	return NewHistogram(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
}

// Observe records one value. It sits on the simulator's per-access hot
// paths, so it is a plain loop over the (dozen-entry) edge slice rather
// than sort.Search — no closure, no allocation; TestHistogramObserveZeroAllocs
// pins that.
func (h *Histogram) Observe(v uint64) {
	i := len(h.edges)
	for j, e := range h.edges {
		if v <= e {
			i = j
			break
		}
	}
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() uint64 { return h.max }

// Edges returns a copy of the bucket upper edges.
func (h *Histogram) Edges() []uint64 {
	out := make([]uint64, len(h.edges))
	copy(out, h.edges)
	return out
}

// Counts returns a copy of the per-bucket counts; the extra final element
// is the overflow bucket (values above the last edge).
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Merge adds every observation of o into h. The histograms must share the
// same bucket edges — merging differently shaped histograms is a
// programming error, caught by panic like a mismatched Counters handle
// would be.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if len(h.edges) != len(o.edges) {
		panic("stats: merging histograms with different edges")
	}
	for i, e := range h.edges {
		if o.edges[i] != e {
			panic("stats: merging histograms with different edges")
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// HistogramSnapshot is the exportable view of a Histogram: independent
// copies of the edges and counts plus the scalar summaries, in the shape
// the hpmp-metrics/v1 JSON schema carries under "histograms". Counts has
// one more element than Edges — the overflow bucket.
type HistogramSnapshot struct {
	Edges  []uint64 `json:"edges"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Min    uint64   `json:"min"`
	Max    uint64   `json:"max"`
}

// Snapshot copies the histogram into an export-ready snapshot, independent
// of the live histogram (safe to cross goroutines after the owning
// goroutine has finished, like Counters.Snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Edges:  h.Edges(),
		Counts: h.Counts(),
		Count:  h.n,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// Quantile returns an approximation of the q-quantile (0 ≤ q ≤ 1) using the
// bucket upper edges.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			if i < len(h.edges) {
				return h.edges[i]
			}
			return h.max
		}
	}
	return h.max
}

// Ratio returns 100*num/den as a percentage, or 0 when den is zero. It is
// the normalization the paper applies everywhere ("normalized to Segment").
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// Overhead returns the percentage by which v exceeds base ((v-base)/base).
func Overhead(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

// Reduction returns the fraction of (slow-fast) overhead over base that mid
// removes: 100*(slow-mid)/(slow-base). It is the paper's "HPMP reduces X% of
// the costs of extra-dimensional page walks" metric.
func Reduction(slow, mid, base float64) float64 {
	if slow == base {
		return 0
	}
	return 100 * (slow - mid) / (slow - base)
}

// Mean returns the arithmetic mean of the values (0 if empty).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// MinMax returns the smallest and largest of the values.
func MinMax(vals []float64) (min, max float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	min, max = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}
