package bench

import (
	"fmt"

	"hpmp/internal/hwcost"
	"hpmp/internal/stats"
)

func init() {
	Register(Experiment{
		ID:     "table4",
		Title:  "Hardware resource costs of the top module",
		Figure: "Table 4",
		// Analytical model: boots no simulated system, so the counter
		// snapshot is intentionally empty.
		Cost: CostLight,
		Run:  runTable4,
	})
}

func runTable4(cfg Config) (*Result, error) {
	res := &Result{ID: "table4", Title: "Hardware resource costs (state/logic accounting model)"}
	t := stats.NewTable("Table 4", "Resource",
		"Baseline", "HPMP", "Cost", "Base+H", "HPMP+H", "Cost")
	plain := hwcost.Table4(false)
	hyp := hwcost.Table4(true)
	for i, row := range plain {
		h := hyp[i]
		t.AddRow(row.Resource,
			fmt.Sprintf("%d", row.Baseline),
			fmt.Sprintf("%d", row.HPMP),
			fmt.Sprintf("%.2f%%", row.CostPct),
			fmt.Sprintf("%d", h.Baseline),
			fmt.Sprintf("%d", h.HPMP),
			fmt.Sprintf("%.2f%%", h.CostPct))
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Substitution: without RTL, costs come from a register/SRAM/logic inventory of the "+
			"HPMP additions against the paper's baseline utilization (paper: 0.94%/1.18% LUT, 0.16%/0.78% FF, 0 elsewhere).")
	return res, nil
}
