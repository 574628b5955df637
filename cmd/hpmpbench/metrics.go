package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one reported metric. endToEnd and perLayer mirror the
// "end_to_end" and "per_layer" lists of BENCHMARK.json at the repository
// root (TestMetricNamesMatchBenchmarkJSON keeps them in step); compare
// takes its regression bounds from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of each workload sees. Every workload reports
// every one of them; README.md defines each per workload.
var endToEnd = []metricDef{
	{"latency_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"ns_per_access", "ns", "lower", 0.25},
	{"alloc_mib", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's layer metrics. The counts and rates come
// from the simulator's own counters for one operation of the workload; the
// _ns/_ms probes time one layer's public entry point on the workload's
// access sample (probes.go).
var perLayer = []metricDef{
	{"cpu.instructions", "count", "lower", 0},
	{"mmu.accesses", "count", "lower", 0},
	{"kernel.page_faults", "count", "lower", 0},
	{"tlb.l1_hit_rate", "ratio", "higher", 0},
	{"tlb.stlb_hit_rate", "ratio", "higher", 0},
	{"ptw.walks", "count", "lower", 0},
	{"ptw.pwc_hit_rate", "ratio", "higher", 0},
	{"pmpt.walks", "count", "lower", 0},
	{"pmpt.refs_per_walk", "ratio", "lower", 0},
	{"hpmp.table_check_frac", "ratio", "lower", 0},
	{"cache.l1_hit_frac", "ratio", "higher", 0},
	{"cache.l2_hit_frac", "ratio", "higher", 0},
	{"cache.llc_hit_frac", "ratio", "higher", 0},
	{"dram.accesses", "count", "lower", 0},
	{"tlb.lookup_ns", "ns", "lower", 0},
	{"mmu.access_hit_ns", "ns", "lower", 0},
	{"mmu.access_ns", "ns", "lower", 0},
	{"ptw.walk_ns", "ns", "lower", 0},
	{"pmpt.walk_ns", "ns", "lower", 0},
	{"hpmp.check_ns", "ns", "lower", 0},
	{"cache.access_ns", "ns", "lower", 0},
	{"dram.access_ns", "ns", "lower", 0},
	{"phys.read64_ns", "ns", "lower", 0},
	{"kernel.fault_ns", "ns", "lower", 0},
	{"cpu.runblock_ns_per_op", "ns", "lower", 0},
	{"simcfg.assemble_ms", "ms", "lower", 0},
	{"replay.new_ms", "ms", "lower", 0},
	{"obs.write_trace_ns_per_event", "ns", "lower", 0},
	{"obs.read_trace_ns_per_event", "ns", "lower", 0},
	{"ptw.port_share", "ratio", "lower", 0},
	{"pmpt.port_share", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// lookupMetric finds a metric definition by name in either list.
func lookupMetric(name string) metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d
			}
		}
	}
	return metricDef{}
}

// checkMetrics verifies that got holds exactly the metrics of want, each a
// finite number.
func checkMetrics(got map[string]float64, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
	}
	return nil
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// fastest returns the smallest of xs, or NaN for an empty slice. The
// benchmark reports it for work that repeats identically within a run (an
// experiment, a replay chunk, a daemon request, a set-up): the simulated
// work is deterministic, so repetitions differ only by interference from
// the rest of the machine, which only ever adds time. On a shared host that
// interference comes in bursts of seconds that slow memory-bound code up to
// twofold, which moves a median but rarely the fastest repetition.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sortedCopy(xs)[0]
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile (0 < p <= 100) of ascending
// sorted by the nearest-rank rule, with its 1-based rank.
func nearestRank(sorted []float64, p float64) (float64, int) {
	n := len(sorted)
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], k
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the highest whole percentile, at most p99, that
// has at least minBeyond samples above its nearest-rank position, together
// with the percentile chosen. When even p50 has fewer samples beyond it,
// it returns the largest sample as p100.
func tailPercentile(xs []float64) (value float64, pct int) {
	s := sortedCopy(xs)
	for p := 99; p >= 50; p-- {
		v, k := nearestRank(s, float64(p))
		if len(s)-k >= minBeyond {
			return v, p
		}
	}
	return s[len(s)-1], 100
}

// quartiles returns the first quartile, median and third quartile of xs
// computed exactly as Python's statistics.quantiles(xs, n=4) does (the
// exclusive method, which extrapolates for very small samples).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
