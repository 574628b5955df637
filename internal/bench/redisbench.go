package bench

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/miniredis"
	"hpmp/internal/simcfg"
	"hpmp/internal/stats"
)

func init() {
	Register(Experiment{
		ID:       "fig12de",
		Title:    "Redis benchmark RPS (Rocket + BOOM)",
		Figure:   "Fig. 12-d/e",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostHeavy,
		Run:      runFig12de,
	})
	Register(Experiment{
		ID:       "fig3d",
		Title:    "Preview: Redis RPS, Table vs Segment (BOOM)",
		Figure:   "Fig. 3-d",
		Counters: []string{"cpu.", "mmu.", "mem.", "kernel.", "monitor."},
		Cost:     CostMedium,
		Run:      runFig3d,
	})
}

// redisRequests picks the per-command request count.
func redisRequests(cfg Config) int {
	if cfg.Quick {
		return simcfg.Or(cfg.Workload.RedisRequests, 8)
	}
	return simcfg.Or(cfg.Workload.RedisRequests, 30)
}

// redisSide is one platform a Redis experiment measures, and whether it
// adds the non-secure Host-PMP baseline.
type redisSide struct {
	plat     cpu.Platform
	withHost bool
}

// collectRedis runs the full command sweep on every side and returns
// rps[side][command][label]. Each label's system is one run-memo unit:
// fig3d's three PL systems are fig12de's BOOM ones. All sides' units go to
// one sharedUnits call, so no side waits for another's.
func collectRedis(cfg Config, sides ...redisSide) ([]map[string]map[string]float64, error) {
	var units []unit[map[string]float64]
	var side []int // side[i] is the side unit i measures
	for i, sd := range sides {
		plat := sd.plat
		add := func(label string, boot func(Config) (*System, error)) {
			units = append(units, unit[map[string]float64]{memoKey{collector: "redis", plat: plat, label: label},
				func(cfg Config) (map[string]float64, error) { return redisSweep(label, boot, cfg) }})
			side = append(side, i)
		}
		if sd.withHost {
			add("Host-PMP", func(cfg Config) (*System, error) { return NewHostSystem(plat, cfg) })
		}
		for _, mode := range AllModes {
			add("PL-"+ModeNames[mode], func(cfg Config) (*System, error) { return NewSystem(plat, mode, cfg) })
		}
	}
	rps, err := sharedUnits(cfg, units)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]map[string]float64, len(sides))
	for i := range out {
		out[i] = map[string]map[string]float64{}
		for _, cmd := range miniredis.Commands {
			out[i][cmd] = map[string]float64{}
		}
	}
	for i, u := range units {
		for cmd, v := range rps[i] {
			out[side[i]][cmd][u.key.label] = v
		}
	}
	return out, nil
}

// redisSweep boots one system, starts a miniredis server on it and runs
// every command, returning rps[command].
func redisSweep(label string, boot func(Config) (*System, error), cfg Config) (map[string]float64, error) {
	sys, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	e, err := sys.NewEnv("redis-server", 96*1024)
	if err != nil {
		return nil, err
	}
	srv, err := miniredis.NewServer(e, 48*addr.MiB, 4096)
	if err != nil {
		return nil, err
	}
	b := miniredis.NewBenchmark(srv, e)
	if ks := cfg.Workload.RedisKeyspace; ks > 0 {
		b.Keyspace = ks
	}
	if err := b.Prepare(); err != nil {
		return nil, err
	}
	n := redisRequests(cfg)
	out := map[string]float64{}
	for _, cmd := range miniredis.Commands {
		rps, err := b.RunCommand(cmd, n)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", label, cmd, err)
		}
		out[cmd] = rps
	}
	return out, nil
}

func runFig12de(cfg Config) (*Result, error) {
	sides := []redisSide{{cpu.RocketPlatform(), false}, {cpu.BOOMPlatform(), true}}
	perSide, err := collectRedis(cfg, sides...)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "fig12de", Title: "Redis RPS normalized to Penglai-PMP (higher is better)"}
	for i, name := range []string{"Rocket", "BOOM"} {
		data := perSide[i]
		cols := []string{"PL-PMP", "PL-PMPT", "PL-HPMP"}
		if sides[i].withHost {
			cols = append([]string{"Host-PMP"}, cols...)
		}
		t := stats.NewTable(fmt.Sprintf("Redis (%s), RPS %% of PL-PMP", name),
			append([]string{"Command"}, cols...)...)
		var pmptLoss, hpmpLoss []float64
		for _, cmd := range miniredis.Commands {
			base := data[cmd]["PL-PMP"]
			row := []string{cmd}
			for _, c := range cols {
				row = append(row, fmt.Sprintf("%.1f", stats.Ratio(data[cmd][c], base)))
			}
			t.AddRow(row...)
			pmptLoss = append(pmptLoss, 100-stats.Ratio(data[cmd]["PL-PMPT"], base))
			hpmpLoss = append(hpmpLoss, 100-stats.Ratio(data[cmd]["PL-HPMP"], base))
		}
		res.Tables = append(res.Tables, t)
		lo, hi := stats.MinMax(pmptLoss)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: PMPT throughput loss %.1f%%–%.1f%% (avg %.1f%%); HPMP avg %.1f%%.",
			name, lo, hi, stats.Mean(pmptLoss), stats.Mean(hpmpLoss)))
	}
	res.Notes = append(res.Notes,
		"Paper: PMPT loses 5.9–18% Rocket (avg 10.5%), 10.8–31.8% BOOM (avg 16.0%); HPMP avg 3.3%/4.5%.")
	return res, nil
}

func runFig3d(cfg Config) (*Result, error) {
	perSide, err := collectRedis(cfg, redisSide{plat: cpu.BOOMPlatform()})
	if err != nil {
		return nil, err
	}
	data := perSide[0]
	var ratios []float64
	for _, cmd := range miniredis.Commands {
		ratios = append(ratios, stats.Ratio(data[cmd]["PL-PMPT"], data[cmd]["PL-PMP"]))
	}
	return fig3Preview("fig3d", "Redis RPS normalized to Segment (BOOM, higher is better)", ratios, true), nil
}
