// Command hpmpsim runs the paper's experiments on the simulated platforms.
//
// Usage:
//
//	hpmpsim list                 # list every experiment (table/figure ids)
//	hpmpsim describe fig10       # full metadata for one experiment
//	hpmpsim run <id> [...]       # run one or more experiments
//	hpmpsim run all              # run everything (the full evaluation)
//	hpmpsim -quick run all       # scaled-down sizes (CI)
//	hpmpsim -csv run fig10       # emit CSV instead of aligned tables
//	hpmpsim -parallel 8 run all  # 8 concurrent experiments, same output
//	hpmpsim -timeout 5m run all  # bound each experiment's wall time
//	hpmpsim -metrics-dir m -quick run all   # per-experiment JSON + Prometheus
//	hpmpsim -trace t -trace-every 64 run fig10  # sampled JSONL event traces
//	hpmpsim -progress -pprof localhost:6060 run all  # live status + profiling
//	hpmpsim diff baseline/ current/   # regression-gate two metrics dirs
//	hpmpsim -diff-json v.json -wall-tol 0.5 diff base cur  # machine verdict
//	hpmpsim replay t.trace.jsonl      # re-execute a recorded trace
//	hpmpsim -mode pmpt -depth 3 -metrics-dir m replay t.trace.jsonl  # cross-config
//
// Experiments run on a worker pool (`-parallel`, default NumCPU; 1 runs
// one experiment at a time, though each experiment still simulates its
// independent machine configurations concurrently). Failures are isolated: a failing, panicking, or
// timed-out experiment never aborts the rest — every experiment is
// attempted, an end-of-run summary on stderr names anything that failed,
// and only then does the process exit nonzero. Experiment tables go to
// stdout in natural ID order regardless of completion order, so output is
// byte-identical at any parallelism.
//
// Observability artifacts never touch stdout: metrics and traces go to the
// directories named by -metrics-dir/-trace, progress lines to stderr — so
// the golden-pinned output stream is identical with or without them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hpmp/internal/addr"
	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/simcfg"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI entry point: it parses argv, executes the
// command, and returns the process exit code (0 ok, 1 experiment failure,
// 2 usage error).
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpmpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run scaled-down experiment sizes")
	csv := fs.Bool("csv", false, "emit CSV tables (plus per-experiment counter snapshots)")
	parallel := fs.Int("parallel", runtime.NumCPU(), "concurrent experiments for 'run' (1 = one at a time; an experiment's independent machines still run concurrently)")
	timeout := fs.Duration("timeout", 0, "per-experiment wall-time limit (0 = none)")
	metricsDir := fs.String("metrics-dir", "", "write per-experiment metrics (<id>.json + <id>.prom) into this directory")
	traceDir := fs.String("trace", "", "enable event tracing and write per-experiment JSONL traces (<id>.trace.jsonl) into this directory")
	traceEvery := fs.Int("trace-every", 1, "with -trace, sample every Nth translation event")
	traceKeep := fs.Int("trace-keep", obs.DefaultRing, "with -trace, events retained per experiment")
	progress := fs.Bool("progress", false, "print a live per-experiment status line to stderr as each finishes")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
	diffJSON := fs.String("diff-json", "", "with 'diff', also write the machine-readable verdict to this file")
	wallTol := fs.Float64("wall-tol", 0, "with 'diff', fail on wall-time drift beyond this fraction (0 = report only)")
	mf := simcfg.AddFlags(fs, "with 'replay', ")
	rID := fs.String("id", "replay", "with 'replay', experiment id used for metrics artifacts")
	rOutTrace := fs.String("out-trace", "", "with 'replay', capture the replay's own unsampled trace to this file")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	args := fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return 2
	}
	cfg := bench.DefaultConfig()
	cfg.Quick = *quick
	cfg.MemSize = *mf.MemMiB * addr.MiB
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "hpmpsim: %v\n", err)
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "hpmpsim: -parallel must be at least 1 (got %d)\n", *parallel)
		return 2
	}
	if *traceEvery < 1 || *traceKeep < 1 {
		fmt.Fprintf(stderr, "hpmpsim: -trace-every and -trace-keep must be at least 1\n")
		return 2
	}

	switch args[0] {
	case "list":
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-12s %-12s %-7s %s\n", e.ID, orDash(e.Figure), e.Cost, e.Title)
		}
		return 0
	case "describe":
		if len(args) != 2 {
			fmt.Fprintln(stderr, "hpmpsim: describe requires exactly one experiment id")
			return 2
		}
		exp, ok := bench.ByID(args[1])
		if !ok {
			fmt.Fprintf(stderr, "hpmpsim: unknown experiment %q (try 'hpmpsim list')\n", args[1])
			return 2
		}
		describe(stdout, exp)
		return 0
	case "run":
		ids := args[1:]
		if len(ids) == 0 {
			fmt.Fprintln(stderr, "hpmpsim: run requires experiment ids (or 'all')")
			return 2
		}
		var exps []bench.Experiment
		if len(ids) == 1 && ids[0] == "all" {
			exps = bench.All()
		} else {
			for _, id := range ids {
				exp, ok := bench.ByID(id)
				if !ok {
					fmt.Fprintf(stderr, "hpmpsim: unknown experiment %q (try 'hpmpsim list')\n", id)
					return 2
				}
				exps = append(exps, exp)
			}
		}
		opts := bench.RunOptions{Parallel: *parallel, Timeout: *timeout}
		if *traceDir != "" {
			opts.TraceEvery = *traceEvery
			opts.TraceKeep = *traceKeep
		}
		if *progress {
			opts.Progress = func(done, total int, o bench.Outcome) {
				fmt.Fprintf(stderr, "hpmpsim: [%d/%d] %s: %s (%v)\n",
					done, total, o.Experiment.ID, o.Status, o.Wall.Round(time.Millisecond))
			}
		}
		if *pprofAddr != "" {
			go func() {
				if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
					fmt.Fprintf(stderr, "hpmpsim: pprof server: %v\n", err)
				}
			}()
		}
		art := artifacts{metricsDir: *metricsDir, traceDir: *traceDir, quick: *quick}
		if err := art.prepare(); err != nil {
			fmt.Fprintf(stderr, "hpmpsim: %v\n", err)
			return 2
		}
		return runExperiments(ctx, cfg, exps, opts, *csv, art, stdout, stderr)
	case "replay":
		if len(args) != 2 {
			fmt.Fprintln(stderr, "hpmpsim: replay requires exactly one trace file: replay [flags] <trace.jsonl>")
			return 2
		}
		// simcfg.Flags owns the CLI geometry convention (0 = the structure
		// is absent, negative = platform default) and its remap onto the
		// internal tri-state.
		return runReplay(args[1], mf.Machine(), *rID, *metricsDir, *rOutTrace, stdout, stderr)
	case "diff":
		if len(args) != 3 {
			fmt.Fprintln(stderr, "hpmpsim: diff requires exactly two metrics directories: diff <baseline-dir> <current-dir>")
			return 2
		}
		return runDiff(args[1], args[2], obs.DiffOptions{WallTol: *wallTol}, *diffJSON, stdout, stderr)
	default:
		fs.Usage()
		return 2
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// describe prints one experiment's full spec metadata.
func describe(w io.Writer, e bench.Experiment) {
	fmt.Fprintf(w, "id:       %s\n", e.ID)
	fmt.Fprintf(w, "title:    %s\n", e.Title)
	fmt.Fprintf(w, "figure:   %s\n", orDash(e.Figure))
	fmt.Fprintf(w, "cost:     %s\n", e.Cost)
	if len(e.Counters) == 0 {
		fmt.Fprintf(w, "counters: - (analytical; boots no simulated system)\n")
		return
	}
	fmt.Fprintf(w, "counters:\n")
	for _, c := range e.Counters {
		fmt.Fprintf(w, "  %s*\n", c)
	}
}

// artifacts writes per-experiment observability files. Zero value disables
// everything.
type artifacts struct {
	metricsDir string
	traceDir   string
	quick      bool
}

func (a artifacts) prepare() error {
	for _, dir := range []string{a.metricsDir, a.traceDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// write emits the outcome's metrics and trace files; it returns the first
// error so the caller can fail the run without interrupting other emits.
func (a artifacts) write(o bench.Outcome) error {
	if a.metricsDir != "" {
		m := bench.MetricsFor(o, a.quick)
		if err := writeFile(filepath.Join(a.metricsDir, o.Experiment.ID+".json"), m.WriteJSON); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(a.metricsDir, o.Experiment.ID+".prom"), m.WritePrometheus); err != nil {
			return err
		}
	}
	if a.traceDir != "" && o.Trace != nil {
		path := filepath.Join(a.traceDir, o.Experiment.ID+".trace.jsonl")
		emit := func(w io.Writer) error { return obs.WriteTrace(w, o.Experiment.ID, o.Trace) }
		if err := writeFile(path, emit); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// runDiff compares two metrics directories (see internal/obs.DiffDirs) and
// reports: the human table to stdout, regressions to stderr, optional
// machine JSON to jsonPath. Exit 0 clean, 1 regression, 2 unreadable input.
func runDiff(baseDir, curDir string, opt obs.DiffOptions, jsonPath string, stdout, stderr io.Writer) int {
	rep, err := obs.DiffDirs(baseDir, curDir, opt)
	if err != nil {
		fmt.Fprintf(stderr, "hpmpsim: diff: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, rep.Table().Render())
	if jsonPath != "" {
		emit := func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		if err := writeFile(jsonPath, emit); err != nil {
			fmt.Fprintf(stderr, "hpmpsim: diff: %v\n", err)
			return 2
		}
	}
	if !rep.OK() {
		fmt.Fprintf(stderr, "hpmpsim: metrics diff found %d regressions across %d experiments\n",
			rep.Regressions, rep.Experiments)
		return 1
	}
	return 0
}

// runExperiments drives the worker pool, streaming each result to stdout
// in input order, then prints the summary to stderr. Returns 1 if any
// experiment did not complete successfully or any artifact failed to
// write.
func runExperiments(ctx context.Context, cfg bench.Config, exps []bench.Experiment, opts bench.RunOptions, csv bool, art artifacts, stdout, stderr io.Writer) int {
	artifactErrs := 0
	emit := func(o bench.Outcome) {
		if err := art.write(o); err != nil {
			artifactErrs++
			fmt.Fprintf(stderr, "hpmpsim: artifact: %v\n", err)
		}
		if !o.OK() {
			fmt.Fprintf(stderr, "hpmpsim: %s: %s: %v\n", o.Experiment.ID, o.Status, o.Err)
			return
		}
		if csv {
			for _, t := range o.Result.Tables {
				fmt.Fprintf(stdout, "# %s — %s\n%s\n", o.Result.ID, t.Title, t.CSV())
			}
			fmt.Fprintf(stdout, "# %s — counters\n%s\n", o.Result.ID, bench.CountersCSV(o.Result))
		} else {
			fmt.Fprintln(stdout, o.Result.Render())
		}
	}
	outcomes := bench.RunAll(ctx, cfg, exps, opts, emit)

	failed := 0
	for _, o := range outcomes {
		if !o.OK() {
			failed++
		}
	}
	// The summary carries wall times, which vary run to run — it stays on
	// stderr so stdout remains byte-identical across runs and parallelism
	// levels.
	if len(outcomes) > 1 || failed > 0 {
		fmt.Fprint(stderr, bench.Summary(outcomes).Render())
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "hpmpsim: %d of %d experiments failed\n", failed, len(outcomes))
		return 1
	}
	if artifactErrs > 0 {
		fmt.Fprintf(stderr, "hpmpsim: %d artifact writes failed\n", artifactErrs)
		return 1
	}
	return 0
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, `hpmpsim — HPMP (MICRO'23) experiment harness

Usage:
  hpmpsim [flags] list
  hpmpsim [flags] describe <experiment-id>
  hpmpsim [flags] run <experiment-id>... | all
  hpmpsim [flags] replay <trace.jsonl>
  hpmpsim [flags] diff <baseline-dir> <current-dir>

Flags:
`)
	fs.PrintDefaults()
}
