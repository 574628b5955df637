package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/stats"
)

func init() {
	Register(Experiment{
		ID:       "fig14a",
		Title:    "Domain switch cost vs domain count",
		Figure:   "Fig. 14-a",
		Counters: []string{"monitor."},
		Cost:     CostLight,
		Run:      runFig14a,
	})
	Register(Experiment{
		ID:       "fig14bc",
		Title:    "Physical-memory region allocation/release",
		Figure:   "Fig. 14-b/c",
		Counters: []string{"monitor."},
		Cost:     CostLight,
		Run:      runFig14bc,
	})
	Register(Experiment{
		ID:       "fig14d",
		Title:    "Region allocation with different sizes",
		Figure:   "Fig. 14-d",
		Counters: []string{"monitor."},
		Cost:     CostLight,
		Run:      runFig14d,
	})
}

// bootMon boots a bare monitor (no kernel) for TEE-operation timing.
func bootMon(mode monitor.Mode, cfg Config) (*monitor.Monitor, error) {
	sys, err := bootSystem(cpu.RocketPlatform(), monitor.DefaultConfig(mode), nil, cfg)
	if err != nil {
		return nil, err
	}
	return sys.Mon, nil
}

// buildDomains creates n-1 enclaves (the host is domain 0), each with one
// 64 KiB region.
func buildDomains(mon *monitor.Monitor, n int) ([]monitor.DomainID, error) {
	ids := []monitor.DomainID{monitor.HostDomain}
	for i := 1; i < n; i++ {
		id, _, err := mon.CreateEnclave()
		if err != nil {
			return nil, err
		}
		region := addr.Range{Base: addr.PA(0x1000_0000 + i*addr.MiB), Size: 64 * addr.KiB}
		if _, _, err := mon.AddRegion(id, region, perm.RWX, monitor.LabelSlow); err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func runFig14a(cfg Config) (*Result, error) {
	res := &Result{ID: "fig14a", Title: "Domain switch latency (cycles)"}
	t := stats.NewTable("Fig 14-a", "Domains", "Penglai-PMP", "Penglai-HPMP")
	for _, n := range []int{2, 12, 101} {
		row := []string{fmt.Sprintf("%d-domains", n)}
		for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModeHPMP} {
			mon, err := bootMon(mode, cfg)
			if err != nil {
				return nil, err
			}
			ids, err := buildDomains(mon, n)
			if err != nil {
				if mode == monitor.ModePMP {
					row = append(row, "no available PMP")
					continue
				}
				return nil, err
			}
			// Measure a round trip between two distinct domains
			// (steady-state switching with all instances resident).
			a, b := ids[1], ids[len(ids)-1]
			if a == b {
				b = monitor.HostDomain
			}
			if _, err := mon.Switch(a); err != nil {
				return nil, err
			}
			c1, err := mon.Switch(b)
			if err != nil {
				return nil, err
			}
			c2, err := mon.Switch(a)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", (c1+c2)/2))
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Paper: HPMP within 1% of PMP and flat in the domain count; PMP cannot host 101 domains.")
	return res, nil
}

func runFig14bc(cfg Config) (*Result, error) {
	res := &Result{ID: "fig14bc", Title: "64 KiB region allocation and release latency (cycles)"}
	regions := 100
	if cfg.Quick {
		regions = 40
	}
	type sample struct {
		idx    int
		cycles uint64
	}
	alloc := map[monitor.Mode][]sample{}
	rel := map[monitor.Mode][]sample{}
	for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModeHPMP} {
		mon, err := bootMon(mode, cfg)
		if err != nil {
			return nil, err
		}
		enc, _, err := mon.CreateEnclave()
		if err != nil {
			return nil, err
		}
		var ids []monitor.GMSID
		for i := 0; i < regions; i++ {
			region := addr.Range{Base: addr.PA(0x1000_0000 + i*addr.MiB), Size: 64 * addr.KiB}
			id, cycles, err := mon.AddRegion(enc, region, perm.RW, monitor.LabelSlow)
			if err != nil {
				break // PMP runs out of entries — the paper's point
			}
			ids = append(ids, id)
			alloc[mode] = append(alloc[mode], sample{i + 1, cycles})
		}
		for i := len(ids) - 1; i >= 0; i-- {
			cycles, err := mon.ReleaseRegion(ids[i])
			if err != nil {
				return nil, err
			}
			rel[mode] = append(rel[mode], sample{len(ids) - i, cycles})
		}
	}
	mk := func(title string, data map[monitor.Mode][]sample) *stats.Table {
		t := stats.NewTable(title, "Region#", "Penglai-PMP", "Penglai-HPMP")
		for _, idx := range []int{1, 5, 10, 14, 20, 50, regions} {
			row := []string{fmt.Sprintf("%d", idx)}
			for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModeHPMP} {
				v := "-"
				for _, s := range data[mode] {
					if s.idx == idx {
						v = fmt.Sprintf("%d", s.cycles)
					}
				}
				row = append(row, v)
			}
			t.AddRow(row...)
		}
		return t
	}
	res.Tables = append(res.Tables,
		mk("Fig 14-b: allocation", alloc),
		mk("Fig 14-c: release", rel))
	pmpMax := len(alloc[monitor.ModePMP])
	res.Notes = append(res.Notes,
		fmt.Sprintf("PMP exhausted its entries after %d regions; HPMP allocated all %d.", pmpMax, regions),
		"Paper: HPMP slightly slower per op (it edits tables and registers) but supports >100 regions.")
	return res, nil
}

func runFig14d(cfg Config) (*Result, error) {
	res := &Result{ID: "fig14d", Title: "Region allocation latency vs size (Penglai-HPMP, cycles)"}
	t := stats.NewTable("Fig 14-d", "Size (MiB)", "Paged table edits", "With 32 MiB huge entries")
	sizes := []uint64{1, 2, 4, 8, 16, 32, 64}
	if cfg.Quick {
		sizes = []uint64{1, 4, 16, 32}
	}
	for _, mib := range sizes {
		row := []string{fmt.Sprintf("%d", mib)}
		for _, huge := range []bool{false, true} {
			mcfg := monitor.DefaultConfig(monitor.ModeHPMP)
			mcfg.HugeTableRanges = huge
			sys, err := bootSystem(cpu.RocketPlatform(), mcfg, nil, cfg)
			if err != nil {
				return nil, err
			}
			mon := sys.Mon
			enc, _, err := mon.CreateEnclave()
			if err != nil {
				return nil, err
			}
			// 32 MiB-aligned base so huge entries are applicable.
			region := addr.Range{Base: 0x1000_0000, Size: mib * addr.MiB}
			_, cycles, err := mon.AddRegion(enc, region, perm.RW, monitor.LabelSlow)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", cycles))
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"Paper: latency grows with size; the large-permission-table-page optimization "+
			"updates a 32 MiB region with a single entry write (§8.7).")
	return res, nil
}
