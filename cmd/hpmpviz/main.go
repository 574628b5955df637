// Command hpmpviz renders one experiment's key series as ASCII bar charts,
// for a quick visual read of the paper's figures without plotting tools.
//
// Usage:
//
//	hpmpviz fig10        # bars of ld-latency per mode per test case
//	hpmpviz fig12de      # bars of Redis RPS percentages
//	hpmpviz -quick fig13 # scaled-down run
//	hpmpviz -metrics m/fig10.json  # render a saved metrics snapshot
//
// With -metrics, nothing is re-run: the latency histograms and derived
// rates of a snapshot written by `hpmpsim -metrics-dir` are rendered as
// bars, so a CI artifact or committed baseline can be inspected offline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"hpmp/internal/addr"
	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI entry point: it parses argv, renders to stdout,
// and returns the process exit code (0 ok, 1 failure, 2 usage error).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpmpviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run scaled-down experiment sizes")
	width := fs.Int("width", 52, "max bar width in characters")
	metrics := fs.String("metrics", "", "render a saved hpmp-metrics/v1 snapshot file instead of running an experiment")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *metrics != "" {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "usage: hpmpviz -metrics <file> (no experiment id)")
			return 2
		}
		if err := renderMetricsFile(stdout, *metrics, *width); err != nil {
			fmt.Fprintf(stderr, "hpmpviz: %v\n", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: hpmpviz [-quick] <experiment-id> | hpmpviz -metrics <file>")
		return 2
	}
	id := fs.Arg(0)
	exp, ok := bench.ByID(id)
	if !ok {
		fmt.Fprintf(stderr, "hpmpviz: unknown experiment %q\n", id)
		return 2
	}
	cfg := bench.DefaultConfig()
	cfg.Quick = *quick
	cfg.MemSize = 512 * addr.MiB
	res, err := exp.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "hpmpviz: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s — %s\n\n", res.ID, res.Title)
	for _, t := range res.Tables {
		renderBars(stdout, t.CSV(), *width)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	return 0
}

// renderMetricsFile loads one snapshot and draws its latency histograms
// (one bar per bucket) and derived rates, no simulation involved.
func renderMetricsFile(w io.Writer, path string, width int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := obs.ReadMetrics(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s — %s (status %s, quick=%v, wall %.2fs)\n\n",
		m.Experiment, orTitle(m.Title), m.Status, m.Quick, m.WallSeconds)

	hists := make([]string, 0, len(m.Histograms))
	for k := range m.Histograms {
		hists = append(hists, k)
	}
	sort.Strings(hists)
	for _, k := range hists {
		renderHistogram(w, k, m.Histograms[k], width)
	}

	derived := make([]string, 0, len(m.Derived))
	for k := range m.Derived {
		derived = append(derived, k)
	}
	sort.Strings(derived)
	if len(derived) > 0 {
		fmt.Fprintln(w, "derived rates")
		for _, k := range derived {
			v := m.Derived[k]
			n := int(v * float64(width))
			fmt.Fprintf(w, "  %-28s |%s %.4f\n", k, strings.Repeat("#", n), v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// renderHistogram draws one latency histogram, one bar per bucket labelled
// by its cycle range, scaled to the fullest bucket.
func renderHistogram(w io.Writer, name string, h stats.HistogramSnapshot, width int) {
	fmt.Fprintf(w, "%s (count %d, min %d, max %d cycles)\n", name, h.Count, h.Min, h.Max)
	if h.Count == 0 {
		fmt.Fprintln(w, "  (no observations)")
		fmt.Fprintln(w)
		return
	}
	var maxC uint64
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var lo uint64
	for i, c := range h.Counts {
		label := "> last edge"
		if i < len(h.Edges) {
			label = fmt.Sprintf("%d-%d", lo, h.Edges[i])
			lo = h.Edges[i] + 1
		} else if len(h.Edges) > 0 {
			label = fmt.Sprintf("> %d", h.Edges[len(h.Edges)-1])
		}
		if c == 0 {
			continue // empty buckets add noise, not information
		}
		n := int(float64(c) / float64(maxC) * float64(width))
		fmt.Fprintf(w, "  %-12s |%s %d\n", label, strings.Repeat("#", n), c)
	}
	fmt.Fprintln(w)
}

func orTitle(s string) string {
	if s == "" {
		return "(untitled)"
	}
	return s
}

// renderBars turns each numeric cell of a CSV table into a labelled bar,
// scaled to the table's maximum.
func renderBars(w io.Writer, csv string, width int) {
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		return
	}
	header := strings.Split(lines[0], ",")
	type bar struct {
		label string
		val   float64
	}
	var bars []bar
	maxVal := 0.0
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		for i := 1; i < len(cells) && i < len(header); i++ {
			v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cells[i]), "%"), 64)
			if err != nil {
				continue
			}
			bars = append(bars, bar{label: cells[0] + " " + header[i], val: v})
			if v > maxVal {
				maxVal = v
			}
		}
	}
	if maxVal == 0 {
		return
	}
	labelW := 0
	for _, b := range bars {
		if len(b.label) > labelW {
			labelW = len(b.label)
		}
	}
	for _, b := range bars {
		n := int(b.val / maxVal * float64(width))
		fmt.Fprintf(w, "%-*s |%s %.1f\n", labelW, b.label, strings.Repeat("#", n), b.val)
	}
	fmt.Fprintln(w)
}
