package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// SecondsHistogram is a concurrency-safe latency histogram over float64
// seconds — the daemon-side complement of stats.Histogram, which is
// single-owner and counts integer cycles. hpmpsimd observes queue waits,
// job run times, and HTTP request latencies from many goroutines at
// once, so this one takes a mutex per Observe; it is nowhere near the
// simulator hot path.
type SecondsHistogram struct {
	mu     sync.Mutex
	edges  []float64
	counts []uint64 // len(edges)+1; the last bucket is +Inf overflow
	sum    float64
	n      uint64
}

// NewSecondsHistogram builds an empty histogram over the daemon's one
// bucket set, upper bounds in seconds: 1 ms resolution at the fast end (an
// HTTP status poll), a minute at the slow end (a full-size experiment job).
func NewSecondsHistogram() *SecondsHistogram {
	edges := []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
	return &SecondsHistogram{edges: edges, counts: make([]uint64, len(edges)+1)}
}

// Observe records one value.
func (h *SecondsHistogram) Observe(v float64) {
	h.mu.Lock()
	i := 0
	for i < len(h.edges) && v > h.edges[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// SecondsSnapshot is an independent copy of a SecondsHistogram at one
// instant, in the shape the Prometheus renderer consumes. Counts has one
// more element than Edges — the +Inf overflow bucket.
type SecondsSnapshot struct {
	Edges  []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state out from under the lock.
func (h *SecondsHistogram) Snapshot() SecondsSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return SecondsSnapshot{
		Edges:  append([]float64(nil), h.edges...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

// WriteSecondsFamilyHeader writes the one # HELP/# TYPE pair a histogram
// family may carry per exposition. Callers then emit one
// WriteSecondsSamples block per label set under the same family name.
func WriteSecondsFamilyHeader(b *strings.Builder, name, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
}

// WriteSecondsSamples renders one label set's cumulative _bucket / _sum /
// _count samples in the native Prometheus histogram exposition. labels is
// the pre-escaped inner label list (e.g. `route="GET /metrics",code="200"`)
// or empty for an unlabeled family. Output is deterministic: fixed bucket
// order, %g float rendering.
func WriteSecondsSamples(b *strings.Builder, name, labels string, s SecondsSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Edges) {
			le = strconv.FormatFloat(s.Edges[i], 'g', -1, 64)
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %g\n", name, s.Sum)
		fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
		return
	}
	fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, s.Sum)
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, s.Count)
}
