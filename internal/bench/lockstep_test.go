package bench

import (
	"fmt"
	"reflect"
	"testing"

	"hpmp/internal/cpu"
	"hpmp/internal/monitor"
	"hpmp/internal/stats"
	"hpmp/internal/workloads"
)

// runAlone is the reference runner for the lockstep suite units: it boots
// one system under mode and runs w in a fresh process on it, alone,
// returning the run's cycles and the system.
func runAlone(plat cpu.Platform, mode monitor.Mode, w workloads.Workload, cfg Config) (uint64, *System, error) {
	sys, err := NewSystem(plat, mode, cfg)
	if err != nil {
		return 0, nil, err
	}
	e, err := sys.NewEnv(w.Name(), 96*1024)
	if err != nil {
		return 0, nil, err
	}
	start := sys.Mach.Core.Now
	if _, err := w.Run(e); err != nil {
		return 0, nil, fmt.Errorf("%s under %v: %w", w.Name(), mode, err)
	}
	return sys.Mach.Core.Now - start, sys, nil
}

// checkFig8Shape checks Figure 8's shape on one workload's lockstep
// systems, whose counter snapshots snaps are in AllModes order (PMP, PMPT,
// HPMP): every mode fetches the same PTEs, PMP fetches no pmpte, and HPMP
// makes at most PMPT's pmpte fetches and permission-table checks.
func checkFig8Shape(t *testing.T, snaps []map[string]uint64) {
	t.Helper()
	pmp, pmpt, hp := snaps[0], snaps[1], snaps[2]
	if pte := pmp["ptw.pte_fetch"]; pte == 0 || pmpt["ptw.pte_fetch"] != pte || hp["ptw.pte_fetch"] != pte {
		t.Errorf("ptw.pte_fetch %d/%d/%d (PMP/PMPT/HPMP), want equal and nonzero",
			pte, pmpt["ptw.pte_fetch"], hp["ptw.pte_fetch"])
	}
	if n := pmp["pmptw.mem_ref"]; n != 0 {
		t.Errorf("PMP: pmptw.mem_ref = %d, want 0", n)
	}
	for _, name := range []string{"pmptw.mem_ref", "hpmp.table_check"} {
		if hp[name] > pmpt[name] {
			t.Errorf("%s: HPMP %d > PMPT %d", name, hp[name], pmpt[name])
		}
	}
}

// systemSnapshot is one system's counters (values and first-use order,
// as Counters.String renders them) and latency histograms.
func systemSnapshot(s *System) (string, map[string]*stats.Histogram) {
	var c stats.Counters
	hists := map[string]*stats.Histogram{}
	s.mergeInto(&c, hists)
	return c.String(), hists
}

// TestLockstepMatchesSeparateRuns: a lockstep suite unit times each mode
// exactly as a system running the workload alone does. For every quick GAP
// and RV8 workload on both platforms, each mode's cycles, whole counter
// snapshot and histograms must equal those of runAlone. An Env method that
// did not fan out to the peers (Touch, Compute, Alloc or an access) would
// leave a peer's machine behind the leader's. The lockstep systems must
// also show Figure 8's shape (checkFig8Shape).
func TestLockstepMatchesSeparateRuns(t *testing.T) {
	cfg := quickConfig()
	suites := []struct {
		name  string
		suite []workloads.Workload
	}{
		{"gap", workloads.GAPSuite(gapScale(cfg))},
		{"rv8", rv8ForConfig(cfg)},
	}
	for _, p := range paperPlatforms {
		for _, s := range suites {
			for _, w := range s.suite {
				t.Run(p.name+"/"+s.name+"/"+w.Name(), func(t *testing.T) {
					ob := &observer{}
					lc := cfg
					lc.obs = ob
					cycles, err := runLockstep(p.plat, w, lc)
					if err != nil {
						t.Fatal(err)
					}
					if len(cycles) != len(AllModes) || len(ob.parts) != len(AllModes) {
						t.Fatalf("%d cycle counts and %d systems, want %d each", len(cycles), len(ob.parts), len(AllModes))
					}
					snaps := make([]map[string]uint64, len(AllModes))
					for i, mode := range AllModes {
						var c stats.Counters
						ob.parts[i].(*System).mergeInto(&c, map[string]*stats.Histogram{})
						snaps[i] = c.Snapshot()
						want, ref, err := runAlone(p.plat, mode, w, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if cycles[i] != want {
							t.Errorf("%v: %d cycles in lockstep, %d alone", mode, cycles[i], want)
						}
						gotC, gotH := systemSnapshot(ob.parts[i].(*System))
						wantC, wantH := systemSnapshot(ref)
						if gotC != wantC {
							t.Errorf("%v: counters in lockstep\n%s\nalone\n%s", mode, gotC, wantC)
						}
						if !reflect.DeepEqual(gotH, wantH) {
							t.Errorf("%v: histograms differ between lockstep and a run alone", mode)
						}
					}
					checkFig8Shape(t, snaps)
				})
			}
		}
	}
}

// TestModeInvarianceOutsideLockstep pins, for the suites that still run
// one system per isolation label, that the label changes timing and never
// the program: the Redis sweep and the FunctionBench suite retire the
// same instructions and memory operations, take the same page and
// copy-on-write faults and fetch the same PTEs under Host-PMP, PL-PMP,
// PL-PMPT and PL-HPMP, on both platforms. It is the precondition for
// driving those labels from one functional run too.
func TestModeInvarianceOutsideLockstep(t *testing.T) {
	cfg := quickConfig()
	invariant := []string{"cpu.instructions", "cpu.mem_ops", "kernel.page_fault", "kernel.cow_fault", "ptw.pte_fetch"}
	suite := funcBenchForConfig(cfg)
	runs := []struct {
		name string
		run  func(label string, boot func(Config) (*System, error), cfg Config) error
	}{
		{"redis", func(label string, boot func(Config) (*System, error), cfg Config) error {
			_, err := redisSweep(label, boot, cfg)
			return err
		}},
		{"funcbench", func(label string, boot func(Config) (*System, error), cfg Config) error {
			_, err := invokeSuite(label, boot, suite, cfg)
			return err
		}},
	}
	for _, p := range paperPlatforms {
		plat := p.plat
		labels := []string{"Host-PMP"}
		boots := []func(Config) (*System, error){func(cfg Config) (*System, error) { return NewHostSystem(plat, cfg) }}
		for _, mode := range AllModes {
			labels = append(labels, "PL-"+ModeNames[mode])
			boots = append(boots, func(cfg Config) (*System, error) { return NewSystem(plat, mode, cfg) })
		}
		for _, r := range runs {
			t.Run(p.name+"/"+r.name, func(t *testing.T) {
				var first map[string]uint64
				for i, label := range labels {
					ob := &observer{}
					c := cfg
					c.obs = ob
					if err := r.run(label, boots[i], c); err != nil {
						t.Fatal(err)
					}
					var counters stats.Counters
					ob.snapshot(&counters, map[string]*stats.Histogram{})
					snap := counters.Snapshot()
					got := map[string]uint64{}
					for _, name := range invariant {
						got[name] = snap[name]
					}
					if got["cpu.instructions"] == 0 || got["cpu.mem_ops"] == 0 || got["kernel.page_fault"] == 0 {
						t.Fatalf("%s: %v, want a program that ran", label, got)
					}
					if first == nil {
						first = got
					} else if !reflect.DeepEqual(got, first) {
						t.Errorf("%s: %v, %s: %v", label, got, labels[0], first)
					}
				}
			})
		}
	}
}
