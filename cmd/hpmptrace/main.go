// Command hpmptrace runs one workload under a chosen isolation mode with
// full access tracing and prints the translation-behaviour summary (TLB
// hit rates, reference breakdown, latency distribution) — the tool for
// understanding *why* a workload reacts to the permission table.
//
// Traces are written in the shared hpmp-trace/v1 JSONL format (see
// internal/obs), the same format cmd/hpmpsim's -trace flag emits, and
// hpmptrace reads either tool's files back with -read.
//
// Usage:
//
//	hpmptrace -mode pmpt -workload pyaes
//	hpmptrace -mode hpmp -workload qsort -csv trace.csv
//	hpmptrace -mode hpmp -workload qsort -trace qsort.trace.jsonl
//	hpmptrace -read qsort.trace.jsonl        # pretty-print any v1 trace
//	hpmptrace -stats qsort.trace.jsonl       # per-kind summary of any v1 trace
//	hpmptrace -replay-check qsort.trace.jsonl # verify replay round-trip
//	hpmptrace -list
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"text/tabwriter"

	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/replay"
	"hpmp/internal/simcfg"
	"hpmp/internal/stats"
	"hpmp/internal/workloads"
)

func catalog() map[string]workloads.Workload {
	out := map[string]workloads.Workload{}
	for _, w := range workloads.RV8Suite() {
		out[w.Name()] = w
	}
	for _, w := range workloads.GAPSuite(9) {
		out[w.Name()] = w
	}
	for _, w := range workloads.FuncBenchSuite() {
		out[w.Name()] = w
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI entry point: it parses argv, executes the
// command, and returns the process exit code (0 ok, 1 failure, 2 usage
// error).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpmptrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mf := simcfg.AddFlags(fs, "")
	wlFlag := fs.String("workload", "qsort", "workload name (see -list)")
	csvPath := fs.String("csv", "", "write the retained event ring as CSV to this file")
	tracePath := fs.String("trace", "", "write the retained event ring as a JSONL trace (hpmp-trace/v1) to this file")
	readPath := fs.String("read", "", "pretty-print a JSONL trace file and exit (no simulation)")
	statsPath := fs.String("stats", "", "print a per-kind summary of a JSONL trace file and exit (no simulation)")
	checkPath := fs.String("replay-check", "", "round-trip a JSONL trace through the replay engine twice and verify the replays agree byte-for-byte (no simulation)")
	keep := fs.Int("keep", 4096, "events retained in the ring")
	list := fs.Bool("list", false, "list workloads and exit")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *keep < 1 {
		fmt.Fprintf(stderr, "hpmptrace: -keep must be at least 1 (got %d)\n", *keep)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hpmptrace:", err)
		return 1
	}

	if *readPath != "" {
		if err := readTrace(stdout, *readPath); err != nil {
			return fail(err)
		}
		return 0
	}
	if *statsPath != "" {
		if err := statsTrace(stdout, *statsPath); err != nil {
			return fail(err)
		}
		return 0
	}
	if *checkPath != "" {
		if err := replayCheck(stdout, *checkPath); err != nil {
			return fail(err)
		}
		return 0
	}

	cat := catalog()
	if *list {
		for name := range cat {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	w, ok := cat[*wlFlag]
	if !ok {
		fmt.Fprintf(stderr, "hpmptrace: unknown workload %q (try -list)\n", *wlFlag)
		return 2
	}
	m := mf.Machine()
	if err := m.Validate(); err != nil {
		fmt.Fprintf(stderr, "hpmptrace: %v\n", err)
		return 2
	}
	mode, ok := m.Mode.MonitorMode()
	if !ok {
		fmt.Fprintf(stderr, "hpmptrace: unknown mode %q\n", m.Mode)
		return 2
	}

	mach := m.Assemble()
	plat := mach.Plat
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
	if err != nil {
		return fail(err)
	}
	k, err := kernel.New(mach, mon, kernel.DefaultConfig(m.MemSize))
	if err != nil {
		return fail(err)
	}
	p, err := k.Spawn(kernel.Image{Name: w.Name(), TextPages: 32, DataPages: 32, HeapPages: 96 * 1024})
	if err != nil {
		return fail(err)
	}
	env, err := k.NewEnv(p)
	if err != nil {
		return fail(err)
	}

	// The MMU hook only, so the ring holds access events and the tracer's
	// tally covers exactly the run's accesses.
	tr := obs.NewTracer(*keep, 1)
	mach.MMU.Trace = tr

	start := mach.Core.Now
	sum, err := w.Run(env)
	if err != nil {
		return fail(err)
	}
	cycles := mach.Core.Now - start

	fmt.Fprintf(stdout, "workload %s under Penglai-%s on %s\n", w.Name(), mode, plat.Core.Name)
	fmt.Fprintf(stdout, "result checksum %#x, %d cycles (%.3f ms simulated)\n\n",
		sum, cycles, float64(cycles)/(plat.Core.ClockGHz*1e6))
	writeSummary(stdout, tr.Tally(), mach.MMU.LatHist)

	if *csvPath != "" {
		var b bytes.Buffer
		writeCSV(&b, tr)
		if err := os.WriteFile(*csvPath, b.Bytes(), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nwrote %d events to %s\n", tr.Kept(), *csvPath)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		source := fmt.Sprintf("%s/%s/%s", w.Name(), mode, plat.Core.Name)
		if err := obs.WriteTrace(f, source, tr); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nwrote %d events to %s\n", tr.Kept(), *tracePath)
	}
	return 0
}

// writeSummary renders the whole-run statistics: counts and references
// from the tracer's tally, the latency distribution from the MMU's
// access-latency histogram. Both see every completed access, faulted or
// not, so they describe the same set.
func writeSummary(w io.Writer, t obs.Tally, lat *stats.Histogram) {
	fmt.Fprintf(w, "accesses: %d (reads %d, writes %d, fetches %d, faults %d)\n",
		t.Accesses, t.ByAccess[perm.Read], t.ByAccess[perm.Write], t.ByAccess[perm.Fetch], t.Faults)
	if t.Accesses > 0 {
		pct := func(p obs.TLBPath) float64 { return 100 * float64(t.ByTLB[p]) / float64(t.Accesses) }
		fmt.Fprintf(w, "TLB: L1 %.1f%%, L2 %.1f%%, miss %.1f%%\n",
			pct(obs.TLBL1), pct(obs.TLBL2), pct(obs.TLBMiss))
	}
	// An event's Refs are its PTE fetches, its permission-table references
	// (ChkRefs) and, unless it faulted, the one data reference.
	data := t.Accesses - t.Faults
	fmt.Fprintf(w, "memory references: %d PTE fetches, %d permission-table, %d data\n",
		t.Refs-t.ChkRefs-data, t.ChkRefs, data)
	fmt.Fprintf(w, "latency cycles: mean %.1f, p50 ≤%d, p99 ≤%d, max %d\n",
		lat.Mean(), lat.Quantile(0.5), lat.Quantile(0.99), lat.Max())
}

// writeCSV renders the tracer's retained events, oldest first.
func writeCSV(w io.Writer, tr *obs.Tracer) {
	fmt.Fprintln(w, "seq,va,pa,access,tlb,refs,chk_refs,cycles,fault")
	tr.Each(func(ev obs.Event) bool {
		fmt.Fprintf(w, "%d,%#x,%#x,%s,%s,%d,%d,%d,%v\n",
			ev.Seq, uint64(ev.VA), uint64(ev.PA), ev.Access, ev.TLB,
			ev.Refs, ev.ChkRefs, ev.Cycles, ev.Fault != obs.FaultNone)
		return true
	})
}

// readTrace decodes a hpmp-trace/v1 file (from this tool or hpmpsim
// -trace) and pretty-prints it.
func readTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, events, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s: source=%s sample-every=%d ring=%d seen=%d sampled=%d kept=%d\n",
		path, h.Source, h.SampleEvery, h.Ring, h.Seen, h.Sampled, h.Kept)
	for _, ev := range events {
		fmt.Fprintln(w, obs.FormatEvent(ev))
	}
	return nil
}

// statsTrace summarizes a hpmp-trace/v1 file: per-kind event counts,
// total reference and cycle costs, and the min/median/max cycle latency.
// Output is deterministic for a given file (fixed kind order, integer
// cycles), so it golden-tests cleanly.
func statsTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, events, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s: source=%s sample-every=%d seen=%d sampled=%d kept=%d\n",
		path, h.Source, h.SampleEvery, h.Seen, h.Sampled, h.Kept)

	type kindStats struct {
		count  int
		refs   uint64
		cycles []uint64
	}
	kinds := []obs.Kind{obs.KindAccess, obs.KindPTEFetch, obs.KindPMPTFetch, obs.KindCheck}
	byKind := map[obs.Kind]*kindStats{}
	for _, k := range kinds {
		byKind[k] = &kindStats{}
	}
	var totalRefs, totalCycles uint64
	for _, ev := range events {
		ks, ok := byKind[ev.Kind]
		if !ok { // future kinds degrade to the totals line, not a crash
			continue
		}
		ks.count++
		ks.refs += uint64(ev.Refs)
		ks.cycles = append(ks.cycles, ev.Cycles)
		totalRefs += uint64(ev.Refs)
		totalCycles += ev.Cycles
	}

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "kind\tcount\trefs\tcycles\tmin\tmedian\tmax")
	for _, k := range kinds {
		ks := byKind[k]
		if ks.count == 0 {
			fmt.Fprintf(tw, "%s\t0\t0\t0\t-\t-\t-\n", k)
			continue
		}
		sort.Slice(ks.cycles, func(i, j int) bool { return ks.cycles[i] < ks.cycles[j] })
		var sum uint64
		for _, c := range ks.cycles {
			sum += c
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n", k, ks.count, ks.refs, sum,
			ks.cycles[0], ks.cycles[(len(ks.cycles)-1)/2], ks.cycles[len(ks.cycles)-1])
	}
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\t\t\t\n", len(events), totalRefs, totalCycles)
	return tw.Flush()
}

// replayCheck is the round-trip gate: parse the trace, replay it twice on
// the canonical replay config, and require the two replays to agree
// byte-for-byte (counters and Prometheus text) with zero divergences from
// the recorded outcomes. This is the CLI form of the replay-equivalence
// property the integration tier pins.
func replayCheck(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	h, events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	run := func() (*replay.Engine, []byte, error) {
		e, err := replay.New(simcfg.Default())
		if err != nil {
			return nil, nil, err
		}
		if err := e.Run(events); err != nil {
			return nil, nil, err
		}
		var prom bytes.Buffer
		if err := e.Metrics(h.Source).WritePrometheus(&prom); err != nil {
			return nil, nil, err
		}
		return e, prom.Bytes(), nil
	}
	e1, p1, err := run()
	if err != nil {
		return err
	}
	e2, p2, err := run()
	if err != nil {
		return err
	}
	if e1.Stats.Divergences > 0 {
		return fmt.Errorf("replay-check %s: replay diverged %d times; first: %s",
			path, e1.Stats.Divergences, e1.Stats.First)
	}
	if !reflect.DeepEqual(e1.Counters(), e2.Counters()) || !bytes.Equal(p1, p2) {
		return fmt.Errorf("replay-check %s: two replays of the same trace disagree", path)
	}
	s := e1.Stats
	fmt.Fprintf(w, "replay-check %s: OK\n", path)
	fmt.Fprintf(w, "  source %s, %d events; replayed %d accesses (%d skipped), %d maps, byte-identical twice\n",
		h.Source, s.Events, s.Accesses, s.Skipped(), s.Maps)
	return nil
}
