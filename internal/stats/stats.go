// Package stats provides the counters, the fixed log2 cycle-latency
// histogram, and the table-rendering helpers that every experiment in the
// benchmark harness shares. All state is deterministic — no wall-clock time
// is consulted — so experiment output is reproducible run to run.
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
	"math/bits"
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

// histBuckets is the number of Histogram buckets: the twelve upper edges
// 2, 4, …, 4096 cycles, then the overflow bucket.
const histBuckets = 13

// Histogram is a cycle-latency histogram with fixed log2 buckets: bucket i
// counts values in (2^i, 2^(i+1)] (bucket 0 also takes 0 to 2), and the
// last bucket counts everything above 4096. The zero value is ready to use,
// so the simulator embeds histograms by value.
type Histogram struct {
	counts [histBuckets]uint64
	sum    uint64
	max    uint64
	notMin uint64 // ^min: a running max, so the zero value needs no empty check
}

// Observe records one value. It sits on the simulator's per-access hot
// paths and inlines into them (make inline-check); it does not allocate
// (TestHistogramObserveZeroAllocs).
func (h *Histogram) Observe(v uint64) {
	i := 0
	if v > 1 {
		i = bits.Len64((v - 1) >> 1)
	}
	if i > histBuckets-1 {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if ^v > h.notMin {
		h.notMin = ^v
	}
}

func (h *Histogram) count() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	return float64(h.sum) / float64(n)
}

// Max returns the largest observation (0 if empty).
func (h *Histogram) Max() uint64 { return h.max }

// Merge adds every observation of o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.max = max(h.max, o.max)
	h.notMin = max(h.notMin, o.notMin)
}

// HistogramSnapshot is the exportable view of a Histogram: the bucket upper
// edges, independent copies of the counts, and the scalar summaries, in the
// shape the hpmp-metrics/v1 JSON schema carries under "histograms". Counts
// has one more element than Edges — the overflow bucket.
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
	s := HistogramSnapshot{
		Edges:  make([]uint64, histBuckets-1),
		Counts: append([]uint64(nil), h.counts[:]...),
		Count:  h.count(),
		Sum:    h.sum,
		Max:    h.max,
	}
	for i := range s.Edges {
		s.Edges[i] = 2 << i
	}
	if s.Count > 0 {
		s.Min = ^h.notMin
	}
	return s
}

// Quantile returns an approximation of the q-quantile (0 ≤ q ≤ 1): the
// upper edge of the bucket holding it, or the maximum in the overflow
// bucket.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	target := uint64(q * float64(n))
	var cum uint64
	for i, c := range h.counts[:histBuckets-1] {
		cum += c
		if cum > target {
			return 2 << i
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
