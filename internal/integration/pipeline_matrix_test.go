// Replay matrix over machine configurations: every isolation mode ×
// permission-table depth × degenerate cache geometry must replay one
// recorded light-experiment trace with 0 divergences, both in the engine's
// blocks of mmu.AccessBatch and one mmu.Access at a time, and the two
// drains must land on equal machine counters, equal final clock and equal
// latency histograms. The replay engine's equivalence machinery is the
// oracle; the trace is recorded once and shared across the matrix.
package integration

import (
	"reflect"
	"testing"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/replay"
	"hpmp/internal/simcfg"
)

// recordMatrixTrace records the first light experiment whose trace holds
// access events, at quick sizes. Walk-only events (PTE and pmpte fetches)
// are regenerated, not replayed, so a trace without accesses would make
// every replay below vacuous. The recorded stream is a set of mapping
// proofs, so it replays with 0 divergences on any machine config — exactly
// what lets one trace sweep the whole matrix.
func recordMatrixTrace(t *testing.T) []obs.Event {
	t.Helper()
	for _, exp := range bench.All() {
		if exp.Cost != bench.CostLight {
			continue
		}
		cfg := bench.DefaultConfig()
		cfg.Quick = true
		outcomes := bench.RunAll(t.Context(), cfg, []bench.Experiment{exp},
			bench.RunOptions{Parallel: 1, TraceEvery: 1, TraceKeep: 1 << 15}, nil)
		o := outcomes[0]
		if !o.OK() {
			t.Fatalf("%s: %v", exp.ID, o.Err)
		}
		if o.Trace == nil {
			continue
		}
		events := o.Trace.Events()
		for _, ev := range events {
			if ev.Kind == obs.KindAccess {
				return events
			}
		}
	}
	t.Fatal("no light-tier experiment produced access events")
	return nil
}

func matrixVariants() []simcfg.Machine {
	base := simcfg.Default()
	// Every isolation mode on the default geometry (depth 2 where a table
	// exists).
	out := modeVariants()
	// Deep permission tables: depths 3 and 4 for both table-walking modes.
	for _, mode := range []simcfg.Mode{simcfg.ModePMPT, simcfg.ModeHPMP} {
		for _, depth := range []int{3, 4} {
			c := base
			c.Mode = mode
			c.TableDepth = depth
			out = append(out, c)
		}
	}
	// Degenerate geometry: every cache structure absent (no L2 TLB, no PWC,
	// no PMPTW cache) on a table-walking mode.
	deg := base
	deg.Mode = simcfg.ModePMPT
	deg.L2TLBEntries = -1
	deg.PWCEntries = -1
	out = append(out, deg)
	// PMPTW cache enabled (the §7 sensitivity config).
	wc := base
	wc.Mode = simcfg.ModeHPMP
	wc.PMPTWCache = 8
	out = append(out, wc)
	return out
}

// replayMatrixOnce replays events on a fresh engine for cfg. Batched, the
// engine drains its queue through mmu.AccessBatch in blocks of up to
// replay.BlockMax; otherwise every event is flushed as soon as it is
// queued, so each access runs alone through one mmu.Access call before the
// next event is even mapped.
func replayMatrixOnce(t *testing.T, cfg simcfg.Machine, events []obs.Event, batched bool) *replay.Engine {
	t.Helper()
	e, err := replay.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batched {
		err = e.Run(events)
	} else {
		for i := 0; i < len(events) && err == nil; i++ {
			if err = e.Step(events[i]); err == nil {
				err = e.Flush()
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.Accesses == 0 {
		t.Fatalf("config %s replayed no accesses (%d events)", cfg, e.Stats.Events)
	}
	if !batched && e.Stats.Blocks != e.Stats.Accesses {
		t.Fatalf("sequential replay ran %d blocks for %d accesses", e.Stats.Blocks, e.Stats.Accesses)
	}
	if e.Stats.Divergences != 0 {
		t.Fatalf("config %s diverged %d times; first: %s", cfg, e.Stats.Divergences, e.Stats.First)
	}
	return e
}

func TestPipelineDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a recorded trace through every machine config")
	}
	events := recordMatrixTrace(t)
	for _, cfg := range matrixVariants() {
		var batched *replay.Engine
		t.Run(cfg.String(), func(t *testing.T) {
			batched = replayMatrixOnce(t, cfg, events, true)
		})
		t.Run(cfg.String()+" scalar", func(t *testing.T) {
			scalar := replayMatrixOnce(t, cfg, events, false)
			if batched == nil {
				t.Fatal("batched replay failed; no reference to compare against")
			}
			requireSameMachine(t, batched, scalar)
		})
	}
}

// TestPipelineScalarBatchEquivalence proves the two drains identical on
// each isolation mode's default geometry, with both replays run inside one
// subtest: one mmu.Access at a time, the same stream lands on the same
// machine counters, clock, and histograms as in AccessBatch blocks. Besides
// the recorded trace it replays faultThenFreshMap.
func TestPipelineScalarBatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a recorded trace twice per isolation mode")
	}
	events := recordMatrixTrace(t)
	for _, cfg := range modeVariants() {
		t.Run(string(cfg.Mode), func(t *testing.T) {
			batched := replayMatrixOnce(t, cfg, events, true)
			requireSameMachine(t, batched, replayMatrixOnce(t, cfg, events, false))
		})
	}
	t.Run("fault-then-fresh-map", func(t *testing.T) {
		for _, cfg := range modeVariants() {
			t.Run(string(cfg.Mode), func(t *testing.T) {
				batched := replayMatrixOnce(t, cfg, faultThenFreshMap, true)
				requireSameMachine(t, batched, replayMatrixOnce(t, cfg, faultThenFreshMap, false))
			})
		}
	})
}

// faultThenFreshMap queues an expected page fault on one page, then the
// first successful access to a neighbour in the same leaf table region. The
// fault's walk must run before the neighbour's mapping builds the
// intermediate tables, in a block exactly as alone.
var faultThenFreshMap = []obs.Event{
	{Kind: obs.KindAccess, Access: perm.Read, Fault: obs.FaultPage, VA: 0x10_0000_1000},
	{Kind: obs.KindAccess, Access: perm.Read, VA: 0x10_0000_0000, PA: 0x200_0000},
}

// modeVariants is every isolation mode on the default geometry.
func modeVariants() []simcfg.Machine {
	var out []simcfg.Machine
	for _, mode := range simcfg.Modes {
		c := simcfg.Default()
		c.Mode = mode
		out = append(out, c)
	}
	return out
}

// requireSameMachine fails t unless the batched and one-at-a-time
// replays of one stream end with equal machine counters, final clock and latency
// histograms.
func requireSameMachine(t *testing.T, batched, scalar *replay.Engine) {
	t.Helper()
	cb, cs := machineOnly(batched.Counters()), machineOnly(scalar.Counters())
	if !reflect.DeepEqual(cb, cs) {
		for k, v := range cb {
			if cs[k] != v {
				t.Errorf("counter %s: batch %d, scalar %d", k, v, cs[k])
			}
		}
		for k, v := range cs {
			if _, ok := cb[k]; !ok {
				t.Errorf("counter %s: batch absent, scalar %d", k, v)
			}
		}
	}
	if batched.Now() != scalar.Now() {
		t.Errorf("final clock: batch %d, scalar %d", batched.Now(), scalar.Now())
	}
	if !reflect.DeepEqual(batched.Histograms(), scalar.Histograms()) {
		t.Error("latency histograms differ between batch and scalar entry points")
	}
}
