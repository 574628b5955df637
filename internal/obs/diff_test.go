package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpmp/internal/stats"
)

// writeMetricsDir materializes snapshots into dir as <experiment>.json, the
// way the CLI's -metrics-dir flag does.
func writeMetricsDir(t *testing.T, dir string, ms ...*Metrics) {
	t.Helper()
	for _, m := range ms {
		f, err := os.Create(filepath.Join(dir, m.Experiment+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// sampleMetrics builds a deterministic snapshot for diff tests.
func sampleMetrics(id string) *Metrics {
	m := NewMetrics(id, map[string]uint64{
		"mmu.access":  100,
		"ptw.walk_ok": 40,
	})
	m.Status = "ok"
	m.Quick = true
	m.WallSeconds = 1.0
	m.Histograms = map[string]stats.HistogramSnapshot{
		"mmu.access_latency": histSnap(2, 8, 300),
	}
	return m
}

// TestDiffDirsSelfDiff: a directory diffed against an identical copy passes
// with zero findings.
func TestDiffDirsSelfDiff(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeMetricsDir(t, base, sampleMetrics("fig10"), sampleMetrics("table3"))
	writeMetricsDir(t, cur, sampleMetrics("fig10"), sampleMetrics("table3"))
	rep, err := DiffDirs(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Diffs) != 0 || rep.Experiments != 2 {
		t.Errorf("self-diff not clean: %+v", rep)
	}
	if rep.Schema != DiffSchema {
		t.Errorf("schema %q", rep.Schema)
	}
	if !strings.Contains(rep.Table().Render(), "PASS") {
		t.Error("table must announce PASS")
	}
}

// TestDiffDirsDetectsCounterDrift: a single perturbed counter is a
// regression naming the counter and both values.
func TestDiffDirsDetectsCounterDrift(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeMetricsDir(t, base, sampleMetrics("fig10"))
	pert := sampleMetrics("fig10")
	pert.Counters["mmu.access"] = 101
	writeMetricsDir(t, cur, pert)
	rep, err := DiffDirs(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Regressions == 0 {
		t.Fatalf("perturbed counter not flagged: %+v", rep)
	}
	found := false
	for _, d := range rep.Diffs {
		for _, f := range d.Findings {
			if f.Family == "counter" && f.Key == "mmu.access" &&
				f.Base == "100" && f.Current == "101" && f.Severity == SevRegression {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("missing counter finding: %+v", rep.Diffs)
	}
	if !strings.Contains(rep.Table().Render(), "FAIL") {
		t.Error("table must announce FAIL")
	}
}

// TestDiffDirsDetectsHistogramDrift: one shifted bucket observation flags
// the histogram family even when the counter families agree.
func TestDiffDirsDetectsHistogramDrift(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeMetricsDir(t, base, sampleMetrics("fig10"))
	pert := sampleMetrics("fig10")
	pert.Histograms["mmu.access_latency"] = histSnap(2, 8, 301)
	writeMetricsDir(t, cur, pert)
	rep, err := DiffDirs(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("histogram drift not flagged: %+v", rep)
	}
	var f *Finding
	for i := range rep.Diffs[0].Findings {
		if rep.Diffs[0].Findings[i].Family == "histogram" {
			f = &rep.Diffs[0].Findings[i]
		}
	}
	if f == nil || f.Key != "mmu.access_latency" {
		t.Fatalf("missing histogram finding: %+v", rep.Diffs)
	}
}

// TestDiffWallTolerance: wall time differing is info by default (it depends
// on the host), and a regression only past an explicit WallTol band.
func TestDiffWallTolerance(t *testing.T) {
	b := sampleMetrics("fig10")
	c := sampleMetrics("fig10")
	c.WallSeconds = 1.3

	fs := DiffMetrics(b, c, DiffOptions{})
	if len(fs) != 1 || fs[0].Family != "wall" || fs[0].Severity != SevInfo {
		t.Fatalf("default wall drift handling: %+v", fs)
	}
	fs = DiffMetrics(b, c, DiffOptions{WallTol: 0.5})
	if len(fs) != 1 || fs[0].Severity != SevInfo {
		t.Errorf("30%% drift within a 50%% band must stay info: %+v", fs)
	}
	fs = DiffMetrics(b, c, DiffOptions{WallTol: 0.1})
	if len(fs) != 1 || fs[0].Severity != SevRegression {
		t.Errorf("30%% drift outside a 10%% band must regress: %+v", fs)
	}
}

// TestDiffWallSlack: beyond WallTol, a wall row regresses only when the run
// is also more than wallSlack slower, so scheduler noise on a microsecond
// experiment stays info while an order-of-magnitude blowup still fails.
func TestDiffWallSlack(t *testing.T) {
	cases := []struct {
		base, cur float64
		want      Severity
	}{
		{0.000038, 0.001, SevInfo}, // table4: 26x, but under 1 ms
		{0.3, 7, SevRegression},    // 23x and 6.7 s slower
		{7, 0.3, SevInfo},          // faster is never a regression
		{0.01, 0.3, SevRegression}, // 30x and 290 ms slower
		{0.001, 0.04, SevInfo},     // 40x, but only 39 ms slower
	}
	for _, c := range cases {
		b, cur := sampleMetrics("table4"), sampleMetrics("table4")
		b.WallSeconds, cur.WallSeconds = c.base, c.cur
		fs := DiffMetrics(b, cur, DiffOptions{WallTol: 20})
		if len(fs) != 1 || fs[0].Family != "wall" || fs[0].Severity != c.want {
			t.Errorf("wall %gs -> %gs under WallTol 20: %+v, want %v", c.base, c.cur, fs, c.want)
		}
	}
}

// TestDiffDirsMissingExperiment: an experiment present on only one side is
// a regression in both directions.
func TestDiffDirsMissingExperiment(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeMetricsDir(t, base, sampleMetrics("fig10"), sampleMetrics("table3"))
	writeMetricsDir(t, cur, sampleMetrics("fig10"), sampleMetrics("fig15"))
	rep, err := DiffDirs(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Regressions != 2 || rep.Experiments != 3 {
		t.Fatalf("missing/new experiments not flagged: %+v", rep)
	}
	got := map[string]string{}
	for _, d := range rep.Diffs {
		for _, f := range d.Findings {
			if f.Family == "file" {
				got[d.Experiment] = f.Base + "/" + f.Current
			}
		}
	}
	if got["table3"] != "present/missing" || got["fig15"] != "missing/present" {
		t.Errorf("file findings: %v", got)
	}
}

// TestDiffStatusAndDerived: status flips and derived-rate drift are
// regressions.
func TestDiffStatusAndDerived(t *testing.T) {
	b := sampleMetrics("fig10")
	c := sampleMetrics("fig10")
	c.Status = "error"
	c.Derived = map[string]float64{"x.rate": 0.5}
	b.Derived = map[string]float64{"x.rate": 0.4999}
	fs := DiffMetrics(b, c, DiffOptions{})
	fams := map[string]Severity{}
	for _, f := range fs {
		fams[f.Family] = f.Severity
	}
	if fams["status"] != SevRegression || fams["derived"] != SevRegression {
		t.Errorf("status/derived drift not flagged: %+v", fs)
	}
}

// TestDiffReportJSON: the verdict marshals under hpmp-metrics-diff/v1 with
// the counts a CI consumer needs.
func TestDiffReportJSON(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	writeMetricsDir(t, base, sampleMetrics("fig10"))
	pert := sampleMetrics("fig10")
	pert.Counters["ptw.walk_ok"] = 41
	writeMetricsDir(t, cur, pert)
	rep, err := DiffDirs(base, cur, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"schema":"hpmp-metrics-diff/v1"`,
		`"regressions":1`,
		`"family":"counter"`,
		`"key":"ptw.walk_ok"`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("diff JSON missing %s:\n%s", want, raw)
		}
	}
}

// TestDiffDirsErrors: empty directories and duplicate experiment ids are
// hard errors, not silent passes.
func TestDiffDirsErrors(t *testing.T) {
	empty, ok := t.TempDir(), t.TempDir()
	writeMetricsDir(t, ok, sampleMetrics("fig10"))
	if _, err := DiffDirs(empty, ok, DiffOptions{}); err == nil {
		t.Error("empty baseline dir must error")
	}
	if _, err := DiffDirs(ok, empty, DiffOptions{}); err == nil {
		t.Error("empty current dir must error")
	}
	dup := t.TempDir()
	writeMetricsDir(t, dup, sampleMetrics("fig10"))
	m := sampleMetrics("fig10")
	f, err := os.Create(filepath.Join(dup, "other-name.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := DiffDirs(dup, ok, DiffOptions{}); err == nil {
		t.Error("duplicate experiment id must error")
	}
}
