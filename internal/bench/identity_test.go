package bench

import (
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"hpmp/internal/stats"
)

// The cross-experiment identities: the Fig. 3 motivation previews and
// fig17's 8-entry-PWC half restate results the evaluation figures measure
// in full. The run memo relies on them, so they are checked here on a
// memo-off run, where every experiment simulates its own machines: a
// change that makes two experiments' "same" machine diverge fails here,
// not silently inside the memo.
//
// A preview's Avg is the mean of unrounded ratios, rounded once; the
// figure prints each ratio rounded. The two means differ by at most 0.05
// plus 0.05 of final rounding, hence avgTol. Worst cells are a max or min,
// which rounding commutes with, so they compare exactly.
const avgTol = 0.1 + 1e-9

// resultTable finds one table of a result by its title and returns its
// rows keyed by first cell, each mapping column header to cell, plus the
// first cells in row order.
func resultTable(t *testing.T, res *Result, title string) (map[string]map[string]string, []string) {
	t.Helper()
	for _, tb := range res.Tables {
		if tb.Title != title {
			continue
		}
		recs, err := csv.NewReader(strings.NewReader(tb.CSV())).ReadAll()
		if err != nil {
			t.Fatalf("%s %q: %v", res.ID, title, err)
		}
		rows := map[string]map[string]string{}
		var keys []string
		for _, rec := range recs[1:] {
			row := map[string]string{}
			for i, h := range recs[0] {
				row[h] = rec[i]
			}
			rows[rec[0]] = row
			keys = append(keys, rec[0])
		}
		return rows, keys
	}
	t.Fatalf("%s has no table %q", res.ID, title)
	return nil, nil
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// preview returns a Fig. 3 preview's Table-column Avg and Worst cells.
func preview(t *testing.T, res *Result) (avg, worst string) {
	t.Helper()
	rows, _ := resultTable(t, res, "Fig 3-"+strings.TrimPrefix(res.ID, "fig3"))
	return rows["Avg"]["Table"], rows["Worst"]["Table"]
}

// checkPreviewOverColumn checks a preview against one column of a full
// figure: Avg is the column's mean within avgTol, Worst is its worst cell
// (or the Segment baseline 100.0 when no cell is worse). It returns the
// row the worst cell sits in.
func checkPreviewOverColumn(t *testing.T, prev *Result, full *Result, title, col string, higherBetter bool) string {
	t.Helper()
	rows, keys := resultTable(t, full, title)
	var vals []float64
	worst, worstRow := 100.0, "Segment"
	for _, k := range keys {
		v := cellFloat(t, rows[k][col])
		vals = append(vals, v)
		if higherBetter && v < worst || !higherBetter && v > worst {
			worst, worstRow = v, k
		}
	}
	avg, worstCell := preview(t, prev)
	if got, want := cellFloat(t, avg), stats.Mean(vals); math.Abs(got-want) > avgTol {
		t.Errorf("%s Avg %s, but the mean of %s %q %s is %.3f", prev.ID, avg, full.ID, title, col, want)
	}
	if want := fmt.Sprintf("%.1f", worst); worstCell != want {
		t.Errorf("%s Worst %s, but the worst of %s %q %s is %s (%s)", prev.ID, worstCell, full.ID, title, col, want, worstRow)
	}
	return worstRow
}

func TestCrossExperimentIdentities(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick evaluation")
	}
	run := unsharedQuickRun(t)
	res := func(id string) *Result { return run[id].Result }

	t.Run("fig3a=fig10", func(t *testing.T) {
		// Fig. 3-a is BOOM's ld PMPT/PMP latency ratio over TC1–TC3 (TC4,
		// the TLB hit, is 100 by construction), from exact cycle counts.
		rows, _ := resultTable(t, res("fig10"), "ld (BOOM)")
		var ratios []float64
		for _, tc := range []string{"TC1", "TC2", "TC3"} {
			ratios = append(ratios, stats.Ratio(cellFloat(t, rows[tc]["PMPTable"]), cellFloat(t, rows[tc]["PMP"])))
		}
		avg, worst := preview(t, res("fig3a"))
		wantAvg, wantWorst := preview(t, fig3Preview("fig3a", "", ratios, false))
		if avg != wantAvg || worst != wantWorst {
			t.Errorf("fig3a Avg/Worst %s/%s, fig10's BOOM ld cells give %s/%s", avg, worst, wantAvg, wantWorst)
		}
	})
	t.Run("fig3b=fig11bc", func(t *testing.T) {
		checkPreviewOverColumn(t, res("fig3b"), res("fig11bc"), "GAP (BOOM)", "Penglai-PMPT", false)
	})
	t.Run("fig3c=fig12ab", func(t *testing.T) {
		checkPreviewOverColumn(t, res("fig3c"), res("fig12ab"), "FunctionBench (BOOM)", "PL-PMPT", false)
	})
	t.Run("fig3d=fig12de", func(t *testing.T) {
		worst := checkPreviewOverColumn(t, res("fig3d"), res("fig12de"), "Redis (BOOM), RPS % of PL-PMP", "PL-PMPT", true)
		// LRANGE_100 is the worst command under the table, as in the paper.
		if worst != "LRANGE_100" {
			t.Errorf("fig3d's worst command is %s, want LRANGE_100", worst)
		}
	})
	t.Run("fig17=fig12ab", func(t *testing.T) {
		// The 8-entry PWC is Table 1's default, so fig17's (8) columns are
		// fig12ab's Rocket PL-* columns cell for cell.
		f17, names := resultTable(t, res("fig17"), "Fig 17")
		f12, _ := resultTable(t, res("fig12ab"), "FunctionBench (Rocket)")
		for _, n := range names {
			for _, mode := range []string{"PMP", "PMPT", "HPMP"} {
				if got, want := f17[n][mode+"(8)"], f12[n]["PL-"+mode]; got != want {
					t.Errorf("%s: fig17 %s(8) = %s, fig12ab Rocket PL-%s = %s", n, mode, got, mode, want)
				}
			}
		}
	})
}
