package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"hpmp/internal/obs"
	"hpmp/internal/replay"
	"hpmp/internal/simcfg"
)

// runReplay re-executes a recorded hpmp-trace/v1 stream against the
// configured machine and reports the replay summary. The stdout report is
// deterministic (wall time goes to stderr); metrics artifacts land in
// metricsDir as <id>.json + <id>.prom, ready for `hpmpsim diff` against any
// other replay of the same trace. Exit 0 on a faithful replay, 1 when the
// replayed machine diverged from the recording, 2 on usage or I/O errors.
func runReplay(tracePath string, cfg simcfg.Machine, id, metricsDir, outTrace string, stdout, stderr io.Writer) int {
	// Build the machine first, so a bad machine flag is reported as such
	// whatever the trace file holds.
	eng, err := replay.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "hpmpsim: replay: %v\n", err)
		return 2
	}
	f, err := os.Open(tracePath)
	if err != nil {
		fmt.Fprintf(stderr, "hpmpsim: replay: %v\n", err)
		return 2
	}
	h, events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "hpmpsim: replay: %v\n", err)
		return 2
	}

	var tr *obs.Tracer
	if outTrace != "" {
		tr = obs.NewTracer(16*len(events)+4096, 1)
		eng.SetTracer(tr)
	}
	start := time.Now()
	if err := eng.Run(events); err != nil {
		fmt.Fprintf(stderr, "hpmpsim: replay: %v\n", err)
		return 2
	}
	wall := time.Since(start)

	s := eng.Stats
	fmt.Fprintf(stdout, "replay %s\n", eng.Config())
	fmt.Fprintf(stdout, "  source:      %s (seen %d, sampled 1/%d, kept %d)\n",
		h.Source, h.Seen, h.SampleEvery, h.Kept)
	fmt.Fprintf(stdout, "  events:      %d\n", s.Events)
	fmt.Fprintf(stdout, "  accesses:    %d in %d blocks\n", s.Accesses, s.Blocks)
	fmt.Fprintf(stdout, "  mapping:     %d maps, %d remaps, %d unmaps, %d faults\n",
		s.Maps, s.Remaps, s.Unmaps, s.Faults)
	fmt.Fprintf(stdout, "  skipped:     %d (kind %d, prot %d, access-fault %d, zero-pa %d, out-of-range %d, unmappable %d)\n",
		s.Skipped(), s.SkippedKind, s.SkippedProt, s.SkippedAccessFault,
		s.SkippedZeroPA, s.SkippedOutOfRange, s.SkippedUnmappable)
	fmt.Fprintf(stdout, "  cycles:      %d\n", eng.Now())
	if s.Divergences > 0 {
		fmt.Fprintf(stdout, "  DIVERGED:    %d mismatches; first: %s\n", s.Divergences, s.First)
	} else {
		fmt.Fprintf(stdout, "  faithful:    every replayed access reproduced its recorded outcome\n")
	}
	emitTopCounters(stdout, eng.Counters())
	fmt.Fprintf(stderr, "hpmpsim: replay: %d events in %v\n", s.Events, wall.Round(time.Millisecond))

	m := eng.Metrics(id)
	m.WallSeconds = wall.Seconds()
	if metricsDir != "" {
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "hpmpsim: replay: %v\n", err)
			return 2
		}
		if err := writeFile(metricsDir+"/"+id+".json", m.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "hpmpsim: replay: %v\n", err)
			return 2
		}
		if err := writeFile(metricsDir+"/"+id+".prom", m.WritePrometheus); err != nil {
			fmt.Fprintf(stderr, "hpmpsim: replay: %v\n", err)
			return 2
		}
	}
	if outTrace != "" {
		emit := func(w io.Writer) error { return obs.WriteTrace(w, id, tr) }
		if err := writeFile(outTrace, emit); err != nil {
			fmt.Fprintf(stderr, "hpmpsim: replay: %v\n", err)
			return 2
		}
	}
	if s.Divergences > 0 {
		fmt.Fprintf(stderr, "hpmpsim: replay diverged %d times\n", s.Divergences)
		return 1
	}
	return 0
}

// emitTopCounters prints the machine counter families most useful when
// eyeballing a cross-config replay, in sorted order for determinism.
func emitTopCounters(w io.Writer, snap map[string]uint64) {
	names := make([]string, 0, len(snap))
	for n := range snap {
		switch {
		case len(n) > 4 && (n[:4] == "mmu." || n[:4] == "ptw." || n[:4] == "tlb."):
			names = append(names, n)
		case len(n) > 5 && (n[:5] == "hpmp." || n[:5] == "stlb."):
			names = append(names, n)
		case len(n) > 6 && n[:6] == "pmptw.":
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %d\n", n, snap[n])
	}
}
