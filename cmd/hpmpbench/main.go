// Command hpmpbench is the repository's benchmark: three workloads that run
// the simulator and the daemon end to end, in-process, check that every
// simulated output is correct, and report end-to-end metrics (or, with
// --trace 1, per-layer metrics from a separate traced run).
//
//	hpmpbench --workload eval-quick --seed 1 --seconds 10 --trace 0
//	hpmpbench compare -base A -head B -pairs 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything for humans goes to
// standard error. README.md maps every metric to the layer that moves it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"hpmp/internal/obs"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	// run measures one window; spans is non-nil only in the traced run.
	run func(o options, spans *spanLog) (*report, error)
	// sample returns the workload's access sample for the layer probes.
	sample func(o options) ([]obs.Event, error)
}

// workloads mirrors the "workloads" list of BENCHMARK.json.
var workloads = []workload{
	{"eval-quick", "every paper experiment at quick size: TLB-hit-dominated, work in cache, phys, tlb, kernel and the workloads", runEval, evalSample},
	{"replay-walk", "seeded 64 MiB access stream replayed under pmp, pmpt and hpmp: most accesses walk, isolating the extra dimension", runReplay, replaySample},
	{"daemon-mix", "closed-loop tenants on the in-process daemon: run, replay and traced jobs, dominated by serve, boot and trace I/O", runDaemon, daemonSample},
}

// sizes scales the workloads; tests shrink them.
type sizes struct {
	evalIDs      []string // eval-quick's experiments; nil runs the whole registry
	replayEvents int      // replay-walk events per mode per round
	daemonJobs   int      // daemon-mix job cap; 0 runs until the window closes
	setupReps    int      // daemon-mix set-ups before the window
	probeCalls   int      // calls per probe batch
	sampleCap    int      // events of the probes' access sample
}

func defaultSizes() sizes {
	return sizes{replayEvents: 1 << 18, setupReps: 5, probeCalls: 1 << 16, sampleCap: 1 << 16}
}

// options is one measurement's settings.
type options struct {
	seed    uint64
	window  time.Duration
	size    sizes
	digests *digestSet
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int
	failures          []string // the first few, for standard error
	metrics           map[string]float64
	// counts holds the simulator counters of one operation of the
	// workload; the per-layer counts and rates derive from it.
	counts map[string]uint64
	// extra holds workload-specific numbers for standard error and -out.
	extra map[string]float64
	notes []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, extra: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// newRNG is the one source of seeded inputs.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x68706d70))
}

// setupClock times set-ups; setup_s is the fastest. eval-quick and
// replay-walk set up again after every operation, so their set-ups are
// sampled across the whole window like the operations are.
type setupClock []float64

func (c *setupClock) time(setup func() error) error {
	start := time.Now()
	if err := setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	*c = append(*c, time.Since(start).Seconds())
	return nil
}

func addCounts(dst, src map[string]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}

// mmuAccesses counts the translations a counter set records: every access
// looks up an L1 TLB once.
func mmuAccesses(c map[string]uint64) uint64 {
	return c["dtlb.hit"] + c["dtlb.miss"] + c["itlb.hit"] + c["itlb.miss"]
}

// layerCounts derives the per-layer counts and rates from one operation's
// counters. A rate whose layer did no work is 0.
func layerCounts(c map[string]uint64) map[string]float64 {
	f := func(k string) float64 { return float64(c[k]) }
	l1 := f("dtlb.hit") + f("itlb.hit")
	data := f("mem.l1_hit") + f("mem.l2_hit") + f("mem.llc_hit") + f("mem.dram_access")
	return map[string]float64{
		"cpu.instructions":      f("cpu.instructions"),
		"mmu.accesses":          float64(mmuAccesses(c)),
		"kernel.page_faults":    f("kernel.page_fault"),
		"tlb.l1_hit_rate":       ratio(l1, float64(mmuAccesses(c))),
		"tlb.stlb_hit_rate":     ratio(f("stlb.hit"), f("stlb.hit")+f("stlb.miss")),
		"ptw.walks":             f("ptw.walk_ok") + f("ptw.page_fault") + f("ptw.access_fault"),
		"ptw.pwc_hit_rate":      ratio(f("ptw.pwc_hit"), f("ptw.pwc_hit")+f("ptw.pte_fetch")),
		"pmpt.walks":            f("pmptw.walk"),
		"pmpt.refs_per_walk":    ratio(f("pmptw.mem_ref"), f("pmptw.walk")),
		"hpmp.table_check_frac": ratio(f("hpmp.table_check"), f("hpmp.table_check")+f("hpmp.segment_check")),
		"cache.l1_hit_frac":     ratio(f("mem.l1_hit"), data),
		"cache.l2_hit_frac":     ratio(f("mem.l2_hit"), data),
		"cache.llc_hit_frac":    ratio(f("mem.llc_hit"), data),
		"dram.accesses":         f("mem.dram_access"),
	}
}

// measure runs one workload once. Untraced, it reports the end-to-end
// metrics. Traced, it runs half the window untraced and half traced (so
// the end-to-end numbers are never taken with tracing on and the
// difference is the tracing overhead), then probes each layer on the
// workload's access sample, and reports the per-layer metrics.
func measure(w workload, o options, traced bool, spansPath string, stderr io.Writer) (*report, error) {
	if !traced {
		rep, err := w.run(o, nil)
		if err != nil {
			return nil, err
		}
		return rep, checkMetrics(rep.metrics, endToEnd)
	}
	half := o
	half.window = o.window / 2
	base, err := w.run(half, nil)
	if err != nil {
		return nil, err
	}
	spans := newSpanLog()
	rep, err := w.run(half, spans)
	if err != nil {
		return nil, err
	}
	sample, err := w.sample(o)
	if err != nil {
		return nil, fmt.Errorf("access sample: %w", err)
	}
	sample = sample[:min(len(sample), o.size.sampleCap)]
	root := spans.begin("probes", 0, w.Name)
	probes, err := runProbes(sample, o.size.probeCalls, spans, root)
	spans.end(root)
	if err != nil {
		return nil, err
	}
	rep.attempted += base.attempted
	rep.failed += base.failed
	rep.failures = append(base.failures, rep.failures...)
	rep.extra["untraced_latency_ms"] = base.metrics["latency_ms"]
	rep.extra["traced_latency_ms"] = rep.metrics["latency_ms"]
	rep.metrics = layerCounts(rep.counts)
	for k, v := range probes {
		rep.metrics[k] = v
	}
	rep.metrics["trace.overhead_frac"] = ratio(rep.extra["traced_latency_ms"], rep.extra["untraced_latency_ms"]) - 1
	rep.notes = append(rep.notes, fmt.Sprintf("access sample: %d events", len(sample)))

	fmt.Fprintf(stderr, "self time per span (%s, traced half):\n", w.Name)
	writeSelfTimes(stderr, spans.selfTimes())
	if spansPath != "" {
		if err := spans.writeFile(spansPath, w.Name); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, checkMetrics(rep.metrics, perLayer)
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultLine(rep *report) resultLine {
	line := resultLine{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: map[string]metricValue{}}
	for name, v := range rep.metrics {
		line.Metrics[name] = metricValue{Value: v, Unit: lookupMetric(name).Unit}
	}
	return line
}

// artifactSchema names the -out file format.
const artifactSchema = "hpmp-bench/v1"

// artifactRun is one run recorded in the -out file.
type artifactRun struct {
	Workload string             `json:"workload"`
	Result   resultLine         `json:"result"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// printReport writes one run's metrics, with units, for humans.
func printReport(w io.Writer, name string, rep *report, defs []metricDef) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed\n", name, rep.attempted, rep.failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, rep.metrics[d.Name], d.Unit)
	}
	for _, k := range sortedKeys(rep.extra) {
		fmt.Fprintf(w, "  (%s %.6g)\n", k, rep.extra[k])
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printSpread writes each metric's min, median and max over repeated runs.
func printSpread(w io.Writer, name string, reps []*report, defs []metricDef) map[string]float64 {
	fmt.Fprintf(w, "== %s: spread over %d runs\n", name, len(reps))
	fmt.Fprintf(w, "  %-30s %14s %14s %14s %8s\n", "metric", "min", "median", "max", "range%")
	medians := map[string]float64{}
	for _, d := range defs {
		var vals []float64
		for _, r := range reps {
			vals = append(vals, r.metrics[d.Name])
		}
		s := sortedCopy(vals)
		med := median(vals)
		medians[d.Name] = med
		fmt.Fprintf(w, "  %-30s %14.6g %14.6g %14.6g %7.1f%%\n", d.Name, s[0], med, s[len(s)-1],
			100*ratio(s[len(s)-1]-s[0], med))
	}
	return medians
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("hpmpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	spansPath := fs.String("spans", "", "with --trace 1, write the traced run's spans to this file")
	outPath := fs.String("out", "", "write every run as an "+artifactSchema+" JSON document to this file")
	repeat := fs.Int("repeat", 1, "run the workload this many times and print each metric's min/median/max")
	update := fs.String("update-digests", "", "recompute the correctness digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "hpmpbench: want --seconds >= 1, --repeat >= 1, --trace 0 or 1, and no arguments")
		return 2
	}
	if *update != "" {
		if err := updateDigests(*update); err != nil {
			fmt.Fprintln(stderr, "hpmpbench:", err)
			return 1
		}
		return 0
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "hpmpbench:", err)
		return 2
	}
	digests, err := loadDigests(committedDigests)
	if err != nil {
		fmt.Fprintln(stderr, "hpmpbench:", err)
		return 1
	}
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, size: defaultSizes(), digests: digests}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}

	code := 0
	var runs []artifactRun
	for _, w := range selected {
		var reps []*report
		for range *repeat {
			rep, err := measure(w, o, *trace == 1, *spansPath, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "hpmpbench: %s: %v\n", w.Name, err)
				return 1
			}
			printReport(stderr, w.Name, rep, defs)
			runs = append(runs, artifactRun{Workload: w.Name, Result: newResultLine(rep),
				Extra: rep.extra, Notes: rep.notes, Failures: rep.failures})
			reps = append(reps, rep)
		}
		final := reps[0]
		if len(reps) > 1 {
			final = newReport()
			final.metrics = printSpread(stderr, w.Name, reps, defs)
			for _, r := range reps {
				final.attempted += r.attempted
				final.failed += r.failed
			}
		}
		line := newResultLine(final)
		if !line.Correct {
			code = 1
		}
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "hpmpbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
	}
	if *outPath != "" {
		doc := struct {
			Schema  string        `json:"schema"`
			Seed    uint64        `json:"seed"`
			Seconds int           `json:"seconds"`
			Trace   bool          `json:"trace"`
			Runs    []artifactRun `json:"runs"`
		}{artifactSchema, *seed, *seconds, *trace == 1, runs}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "hpmpbench: writing -out:", err)
			return 1
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.Name == name {
			return []workload{w}, nil
		}
	}
	return nil, errors.New("unknown workload " + name + " (want " + workloadNames() + " or all)")
}
