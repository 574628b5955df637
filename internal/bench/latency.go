package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/stats"
)

func init() {
	Register(Experiment{
		ID:       "fig10",
		Title:    "Memory access latency (ld/sd, TC1–TC4, Rocket+BOOM)",
		Figure:   "Fig. 10",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostLight,
		Run:      runFig10,
	})
	Register(Experiment{
		ID:       "fig3a",
		Title:    "Preview: single-ld latency, Table vs Segment (BOOM)",
		Figure:   "Fig. 3-a",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostLight,
		Run:      runFig3a,
	})
}

// TestCase is one Table 2 state recipe.
type TestCase int

const (
	TC1 TestCase = iota + 1 // everything cold
	TC2                     // caches warm, TLB+PWC cold
	TC3                     // adjacent-page access: PWC upper levels warm
	TC4                     // everything warm (TLB hit)
)

func (tc TestCase) String() string { return fmt.Sprintf("TC%d", int(tc)) }

// latencyProbe measures one ld or sd under a given state recipe. It builds
// a fresh system, maps a victim page plus an adjacent one, primes the
// state per Table 2, and returns the measured access latency in cycles.
func latencyProbe(plat cpu.Platform, mode monitor.Mode, tc TestCase, write bool, cfg Config) (uint64, error) {
	sys, err := NewSystem(plat, mode, cfg)
	if err != nil {
		return 0, err
	}
	e, err := sys.NewEnv("probe", 1024)
	if err != nil {
		return 0, err
	}
	va := e.P.Heap()
	// Materialize the victim page and its neighbour so no demand faults
	// pollute the measurement.
	if err := e.Touch(va, 2*addr.PageSize); err != nil {
		return 0, err
	}

	kind := perm.Read
	if write {
		kind = perm.Write
	}
	mm := sys.Mach.MMU
	core := sys.Mach.Core

	var res mmu.Result
	prime := func(target addr.VA) error {
		return mm.Access(target, kind, perm.U, core.Now, &res)
	}

	target := va
	switch tc {
	case TC1:
		sys.Mach.ColdReset()
	case TC2:
		// Warm caches (data + PT pages + permission tables), then flush
		// translation state only.
		if err := prime(va); err != nil {
			return 0, err
		}
		mm.FlushTLB()
	case TC3:
		// Access the neighbour page first: upper-level PTEs land in the
		// PWC and caches; then probe the victim page, whose L0 PTE fetch
		// misses the PWC but hits the warm cache. TLB miss for the victim.
		if err := prime(va + addr.PageSize); err != nil {
			return 0, err
		}
		if err := prime(va); err != nil { // warm the victim's own lines
			return 0, err
		}
		mm.FlushVA(va)                                    // victim TLB entry out, PWC flushed
		if err := prime(va + addr.PageSize); err != nil { // re-warm PWC upper levels
			return 0, err
		}
	case TC4:
		if err := prime(va); err != nil {
			return 0, err
		}
	}

	if err := mm.Access(target, kind, perm.U, core.Now, &res); err != nil {
		return 0, err
	}
	if res.Faulted() {
		return 0, fmt.Errorf("latencyProbe: fault under %v/%v: %+v", mode, tc, res)
	}
	lat := res.Latency
	if lat == 0 {
		lat = 1
	}
	return lat, nil
}

// Fig10Data is the full latency matrix, exported for reuse by fig3a and
// the tests.
type Fig10Data struct {
	// Lat[platform][op][mode][tc] in cycles.
	Lat map[string]map[string]map[monitor.Mode]map[TestCase]uint64
}

// CollectFig10 measures every (platform, op, mode, test-case) combination,
// Rocket first then BOOM, so a traced run's event order is fixed. Each
// platform's half is one run-memo unit, shared by fig10 and fig3a.
func CollectFig10(cfg Config) (*Fig10Data, error) {
	var units []unit[platformLat]
	for _, p := range paperPlatforms {
		units = append(units, unit[platformLat]{memoKey{collector: "fig10", plat: p.plat},
			func(cfg Config) (platformLat, error) { return collectFig10Platform(p.plat, cfg) }})
	}
	lats, err := sharedUnits(cfg, units)
	if err != nil {
		return nil, err
	}
	d := &Fig10Data{Lat: map[string]platformLat{}}
	for i, p := range paperPlatforms {
		d.Lat[p.name] = lats[i]
	}
	return d, nil
}

// platformLat is one platform's half of the Fig10Data matrix:
// lat[op][mode][tc] in cycles.
type platformLat = map[string]map[monitor.Mode]map[TestCase]uint64

// collectFig10Platform measures one platform's half of the matrix.
func collectFig10Platform(plat cpu.Platform, cfg Config) (platformLat, error) {
	lat := platformLat{}
	for _, op := range []string{"ld", "sd"} {
		lat[op] = map[monitor.Mode]map[TestCase]uint64{}
		for _, mode := range AllModes {
			lat[op][mode] = map[TestCase]uint64{}
			for _, tc := range []TestCase{TC1, TC2, TC3, TC4} {
				v, err := latencyProbe(plat, mode, tc, op == "sd", cfg)
				if err != nil {
					return nil, err
				}
				lat[op][mode][tc] = v
			}
		}
	}
	return lat, nil
}

func runFig10(cfg Config) (*Result, error) {
	data, err := CollectFig10(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig10", Title: "Memory access latency under TC1–TC4 (cycles)"}
	for _, pname := range []string{"Rocket", "BOOM"} {
		for _, op := range []string{"ld", "sd"} {
			t := stats.NewTable(fmt.Sprintf("%s (%s)", op, pname),
				"Case", "PMPTable", "HPMP", "PMP", "HPMP saves")
			for _, tc := range []TestCase{TC1, TC2, TC3, TC4} {
				pmpt := data.Lat[pname][op][monitor.ModePMPT][tc]
				hpmp := data.Lat[pname][op][monitor.ModeHPMP][tc]
				pmp := data.Lat[pname][op][monitor.ModePMP][tc]
				saved := stats.Reduction(float64(pmpt), float64(hpmp), float64(pmp))
				t.AddRow(tc.String(),
					fmt.Sprintf("%d", pmpt),
					fmt.Sprintf("%d", hpmp),
					fmt.Sprintf("%d", pmp),
					fmt.Sprintf("%.1f%%", saved))
			}
			res.Tables = append(res.Tables, t)
		}
	}
	res.Notes = append(res.Notes,
		"PMPTW-Cache disabled (paper §7 default); PWC 8 entries per Table 1.",
		"'HPMP saves' is the share of the PMPT-over-PMP gap HPMP removes (paper: 23.1%–73.1% on BOOM).")
	return res, nil
}

func runFig3a(cfg Config) (*Result, error) {
	data, err := CollectFig10(cfg)
	if err != nil {
		return nil, err
	}
	var ratios []float64
	// TC4, the TLB-hit case, is identical by construction (ratio 100).
	for _, tc := range []TestCase{TC1, TC2, TC3} {
		pmp := float64(data.Lat["BOOM"]["ld"][monitor.ModePMP][tc])
		pmpt := float64(data.Lat["BOOM"]["ld"][monitor.ModePMPT][tc])
		ratios = append(ratios, stats.Ratio(pmpt, pmp))
	}
	return fig3Preview("fig3a", "ld latency normalized to Segment (BOOM)", ratios, false), nil
}

// fig3Preview renders one Fig. 3 motivation table: the Table (PMPT) cost of
// each case normalized to Segment (PMP) = 100, as the average and the
// worst case. higherBetter picks the worse direction: latency ratios are
// worst at their maximum, throughput ratios at their minimum. The Segment
// baseline itself is a candidate, so Worst never reads better than 100.
func fig3Preview(id, title string, ratios []float64, higherBetter bool) *Result {
	worst := 100.0
	for _, r := range ratios {
		if higherBetter && r < worst || !higherBetter && r > worst {
			worst = r
		}
	}
	t := stats.NewTable("Fig 3-"+id[len("fig3"):], "Case", "Segment", "Table")
	t.AddRow("Avg", "100.0", fmt.Sprintf("%.1f", stats.Mean(ratios)))
	t.AddRow("Worst", "100.0", fmt.Sprintf("%.1f", worst))
	return &Result{ID: id, Title: title, Tables: []*stats.Table{t}}
}
