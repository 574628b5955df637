// Replay matrix over machine configurations: every isolation mode ×
// permission-table depth × degenerate cache geometry must replay one
// recorded light-experiment trace with 0 divergences through both the
// batched and the scalar access entry points, and the two entry points must
// land on equal machine counters, equal final clock and equal latency
// histograms. The replay engine's equivalence machinery is the oracle; the
// trace is recorded once and shared across the matrix.
package integration

import (
	"reflect"
	"testing"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/replay"
)

// recordMatrixTrace records the first light experiment that actually drives
// the traced translation path, at quick sizes. The recorded stream is a set
// of mapping proofs, so it replays with 0 divergences on any machine
// config — exactly what lets one trace sweep the whole matrix.
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
		if o.Trace != nil && o.Trace.Kept() > 0 {
			return o.Trace.Events()
		}
	}
	t.Fatal("no light-tier experiment produced translation events")
	return nil
}

func matrixVariants() []replay.Config {
	base := replay.DefaultConfig()
	var out []replay.Config
	// Every isolation mode on the default geometry (depth 2 where a table
	// exists).
	for _, mode := range []replay.Mode{replay.ModeNone, replay.ModePMP, replay.ModePMPT, replay.ModeHPMP} {
		c := base
		c.Mode = mode
		out = append(out, c)
	}
	// Deep permission tables: depths 3 and 4 for both table-walking modes.
	for _, mode := range []replay.Mode{replay.ModePMPT, replay.ModeHPMP} {
		for _, depth := range []int{3, 4} {
			c := base
			c.Mode = mode
			c.TableDepth = depth
			out = append(out, c)
		}
	}
	// Degenerate geometry: every cache structure absent (no L2 TLB, no PWC,
	// zero-capacity PMPTW cache) on a table-walking mode.
	deg := base
	deg.Mode = replay.ModePMPT
	deg.L2TLBEntries = -1
	deg.PWCEntries = -1
	deg.PMPTWCache = -1
	out = append(out, deg)
	// PMPTW cache enabled (the §7 sensitivity config).
	wc := base
	wc.Mode = replay.ModeHPMP
	wc.PMPTWCache = 8
	out = append(out, wc)
	return out
}

func replayMatrixOnce(t *testing.T, cfg replay.Config, events []obs.Event) *replay.Engine {
	t.Helper()
	e, err := replay.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(events); err != nil {
		t.Fatal(err)
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
			batched = replayMatrixOnce(t, cfg, events)
		})
		cfg.Scalar = true
		t.Run(cfg.String(), func(t *testing.T) {
			scalar := replayMatrixOnce(t, cfg, events)
			if batched == nil {
				t.Fatal("batched replay failed; no reference to compare against")
			}
			requireSameMachine(t, batched, scalar)
		})
	}
}

// TestPipelineScalarBatchEquivalence proves the two entry points identical
// on each isolation mode's default geometry, with both replays run inside
// one subtest: the scalar drain of the same stream lands on the same machine
// counters, clock, and histograms as the batched one.
func TestPipelineScalarBatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a recorded trace twice per isolation mode")
	}
	events := recordMatrixTrace(t)
	base := replay.DefaultConfig()
	for _, mode := range []replay.Mode{replay.ModeNone, replay.ModePMP, replay.ModePMPT, replay.ModeHPMP} {
		cfg := base
		cfg.Mode = mode
		t.Run(string(mode), func(t *testing.T) {
			batched := replayMatrixOnce(t, cfg, events)
			cfg.Scalar = true
			requireSameMachine(t, batched, replayMatrixOnce(t, cfg, events))
		})
	}
}

// requireSameMachine fails t unless the batched and scalar replays of one
// stream end with equal machine counters, final clock and latency
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
