package obs

// The metrics diff engine: compares two directories of hpmp-metrics/v1
// snapshots experiment by experiment, counter by counter, and histogram
// bucket by histogram bucket. It is the calibration gate ROADMAP asked for
// ("diff hpmp_counter families across commits in CI instead of eyeballing
// tables"): simulated behaviour is deterministic, so counters, derived
// rates, and latency histograms must match exactly between a committed
// baseline and a fresh run — only wall-clock time is allowed to drift,
// within a configurable fractional band. `hpmpsim diff` is the CLI front
// end; the CI metrics-diff job runs it against
// internal/integration/testdata/metrics_baseline.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"hpmp/internal/stats"
)

// DiffSchema names the machine-readable verdict format.
const DiffSchema = "hpmp-metrics-diff/v1"

// Severity classifies one finding.
type Severity string

const (
	// SevRegression fails the gate.
	SevRegression Severity = "regression"
	// SevInfo is reported but within tolerance (wall-time drift).
	SevInfo Severity = "info"
)

// DiffOptions tunes the per-family tolerance bands. The zero value is the
// strict-but-practical default: everything deterministic (status, counters,
// derived rates, histograms) must match exactly; wall time is reported but
// never fails the gate.
type DiffOptions struct {
	// WallTol, when > 0, turns wall-time drift beyond the fraction
	// |cur-base|/base into a regression, if the run is also more than
	// wallSlack slower. <= 0 reports drift as info only — wall time depends
	// on the machine, so the committed baseline's values are not comparable
	// across hosts by default.
	WallTol float64
}

// wallSlack is the absolute slowdown, in seconds, a wall row must also
// exceed to regress: scheduler noise alone moves a microsecond-scale
// experiment by far more than any relative band, but never by this much.
const wallSlack = 0.05

// Finding is one observed difference.
type Finding struct {
	// Family names the compared value class: file, status, quick, counter,
	// derived, histogram, or wall.
	Family string `json:"family"`
	// Key is the counter/derived/histogram key, empty for per-file
	// findings.
	Key      string   `json:"key,omitempty"`
	Base     string   `json:"base"`
	Current  string   `json:"current"`
	Severity Severity `json:"severity"`
}

// ExperimentDiff groups the findings of one experiment.
type ExperimentDiff struct {
	Experiment string    `json:"experiment"`
	Findings   []Finding `json:"findings"`
}

// DiffReport is the whole verdict, machine-marshalable as
// hpmp-metrics-diff/v1.
type DiffReport struct {
	Schema   string `json:"schema"`
	Baseline string `json:"baseline"`
	Current  string `json:"current"`
	// Experiments is how many experiment snapshots were compared (union of
	// both directories).
	Experiments int `json:"experiments"`
	// Regressions counts findings with Severity == regression.
	Regressions int              `json:"regressions"`
	Diffs       []ExperimentDiff `json:"diffs"`
}

// OK reports whether the gate passes (no regressions).
func (r *DiffReport) OK() bool { return r.Regressions == 0 }

// Table renders the report as a human-readable table, one row per finding,
// with a PASS/FAIL summary title.
func (r *DiffReport) Table() *stats.Table {
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	title := fmt.Sprintf("metrics diff: %s (%d experiments, %d regressions)",
		verdict, r.Experiments, r.Regressions)
	t := stats.NewTable(title, "Experiment", "Family", "Key", "Baseline", "Current", "Severity")
	for _, d := range r.Diffs {
		for _, f := range d.Findings {
			t.AddRow(d.Experiment, f.Family, f.Key, f.Base, f.Current, string(f.Severity))
		}
	}
	return t
}

// readMetricsDir loads every *.json snapshot in dir, keyed by experiment
// id (taken from the snapshot, not the file name, so renamed files still
// compare correctly).
func readMetricsDir(dir string) (map[string]*Metrics, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("obs: no metrics snapshots (*.json) in %s", dir)
	}
	sort.Strings(paths)
	out := make(map[string]*Metrics, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		m, err := ReadMetrics(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if prev, dup := out[m.Experiment]; dup && prev != nil {
			return nil, fmt.Errorf("obs: duplicate snapshot for experiment %q in %s", m.Experiment, dir)
		}
		out[m.Experiment] = m
	}
	return out, nil
}

// DiffDirs compares every metrics snapshot under baseDir against curDir
// and returns the verdict. Experiments present on only one side are
// regressions (a new experiment must refresh the baseline; a vanished one
// is a lost measurement). The per-value comparison is DiffMetrics.
func DiffDirs(baseDir, curDir string, opt DiffOptions) (*DiffReport, error) {
	base, err := readMetricsDir(baseDir)
	if err != nil {
		return nil, err
	}
	cur, err := readMetricsDir(curDir)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(base))
	for id := range base {
		ids = append(ids, id)
	}
	for id := range cur {
		if _, ok := base[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	rep := &DiffReport{
		Schema:      DiffSchema,
		Baseline:    baseDir,
		Current:     curDir,
		Experiments: len(ids),
	}
	for _, id := range ids {
		b, c := base[id], cur[id]
		var findings []Finding
		switch {
		case c == nil:
			findings = []Finding{{Family: "file", Base: "present", Current: "missing", Severity: SevRegression}}
		case b == nil:
			findings = []Finding{{Family: "file", Base: "missing", Current: "present", Severity: SevRegression}}
		default:
			findings = DiffMetrics(b, c, opt)
		}
		if len(findings) == 0 {
			continue
		}
		for _, f := range findings {
			if f.Severity == SevRegression {
				rep.Regressions++
			}
		}
		rep.Diffs = append(rep.Diffs, ExperimentDiff{Experiment: id, Findings: findings})
	}
	return rep, nil
}

// DiffMetrics compares two snapshots of the same experiment and returns
// the findings, deterministically ordered (family by family, keys sorted).
func DiffMetrics(base, cur *Metrics, opt DiffOptions) []Finding {
	var out []Finding
	if base.Status != cur.Status {
		out = append(out, Finding{Family: "status", Base: base.Status, Current: cur.Status, Severity: SevRegression})
	}
	if base.Quick != cur.Quick {
		out = append(out, Finding{Family: "quick",
			Base: fmt.Sprintf("%v", base.Quick), Current: fmt.Sprintf("%v", cur.Quick), Severity: SevRegression})
	}

	for _, k := range unionKeys(base.Counters, cur.Counters) {
		bv, cv := base.Counters[k], cur.Counters[k]
		if bv != cv {
			out = append(out, Finding{Family: "counter", Key: k,
				Base: fmt.Sprintf("%d", bv), Current: fmt.Sprintf("%d", cv), Severity: SevRegression})
		}
	}

	dkeys := make([]string, 0, len(base.Derived)+len(cur.Derived))
	seen := map[string]bool{}
	for k := range base.Derived {
		seen[k] = true
		dkeys = append(dkeys, k)
	}
	for k := range cur.Derived {
		if !seen[k] {
			dkeys = append(dkeys, k)
		}
	}
	sort.Strings(dkeys)
	for _, k := range dkeys {
		bv, bok := base.Derived[k]
		cv, cok := cur.Derived[k]
		// Derived values are computed deterministically from counters, so
		// they must match exactly after the JSON round trip.
		if bok != cok || bv != cv {
			out = append(out, Finding{Family: "derived", Key: k,
				Base: derivedStr(bv, bok), Current: derivedStr(cv, cok), Severity: SevRegression})
		}
	}

	hkeys := make([]string, 0, len(base.Histograms)+len(cur.Histograms))
	hseen := map[string]bool{}
	for k := range base.Histograms {
		hseen[k] = true
		hkeys = append(hkeys, k)
	}
	for k := range cur.Histograms {
		if !hseen[k] {
			hkeys = append(hkeys, k)
		}
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		bh, bok := base.Histograms[k]
		ch, cok := cur.Histograms[k]
		if !bok || !cok {
			out = append(out, Finding{Family: "histogram", Key: k,
				Base: histPresence(bh, bok), Current: histPresence(ch, cok), Severity: SevRegression})
			continue
		}
		if d := histDelta(bh, ch); d != "" {
			out = append(out, Finding{Family: "histogram", Key: k,
				Base: histSummary(bh), Current: histSummary(ch) + " (" + d + ")", Severity: SevRegression})
		}
	}

	if base.WallSeconds != cur.WallSeconds {
		sev := SevInfo
		if opt.WallTol > 0 && !withinRel(base.WallSeconds, cur.WallSeconds, opt.WallTol) &&
			cur.WallSeconds-base.WallSeconds > wallSlack {
			sev = SevRegression
		}
		out = append(out, Finding{Family: "wall",
			Base:     fmt.Sprintf("%.3fs", base.WallSeconds),
			Current:  fmt.Sprintf("%.3fs", cur.WallSeconds),
			Severity: sev})
	}
	return out
}

// unionKeys returns the sorted union of both counter maps' keys.
func unionKeys(a, b map[string]uint64) []string {
	keys := make([]string, 0, len(a)+len(b))
	seen := make(map[string]bool, len(a))
	for k := range a {
		seen[k] = true
		keys = append(keys, k)
	}
	for k := range b {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// withinRel reports whether cur is within the relative tolerance of base;
// tol <= 0 demands exact equality.
func withinRel(base, cur, tol float64) bool {
	if base == cur {
		return true
	}
	if tol <= 0 {
		return false
	}
	den := math.Abs(base)
	if den == 0 {
		return false
	}
	return math.Abs(cur-base)/den <= tol
}

func derivedStr(v float64, ok bool) string {
	if !ok {
		return "absent"
	}
	return fmt.Sprintf("%g", v)
}

func histPresence(h stats.HistogramSnapshot, ok bool) string {
	if !ok {
		return "absent"
	}
	return histSummary(h)
}

// histSummary compresses a histogram into "count=N sum=S" for finding rows.
func histSummary(h stats.HistogramSnapshot) string {
	return fmt.Sprintf("count=%d sum=%d", h.Count, h.Sum)
}

// histDelta names the first way two snapshots differ ("" when identical):
// edge layout, scalar summaries, or the first differing bucket.
func histDelta(b, c stats.HistogramSnapshot) string {
	if len(b.Edges) != len(c.Edges) {
		return fmt.Sprintf("edge count %d vs %d", len(b.Edges), len(c.Edges))
	}
	for i := range b.Edges {
		if b.Edges[i] != c.Edges[i] {
			return fmt.Sprintf("edge[%d] %d vs %d", i, b.Edges[i], c.Edges[i])
		}
	}
	if b.Count != c.Count || b.Sum != c.Sum || b.Min != c.Min || b.Max != c.Max {
		return fmt.Sprintf("summary min=%d/%d max=%d/%d", b.Min, c.Min, b.Max, c.Max)
	}
	for i := range b.Counts {
		if i >= len(c.Counts) || b.Counts[i] != c.Counts[i] {
			var cv uint64
			if i < len(c.Counts) {
				cv = c.Counts[i]
			}
			return fmt.Sprintf("bucket[%s] %d vs %d", bucketLabel(b.Edges, i), b.Counts[i], cv)
		}
	}
	if len(c.Counts) > len(b.Counts) {
		return fmt.Sprintf("bucket count %d vs %d", len(b.Counts), len(c.Counts))
	}
	return ""
}

// bucketLabel names bucket i by its upper edge ("+Inf" for overflow).
func bucketLabel(edges []uint64, i int) string {
	if i < len(edges) {
		return fmt.Sprintf("le=%d", edges[i])
	}
	return "le=+Inf"
}
