package bench

import (
	"testing"

	"hpmp/internal/cpu"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

// These tests guard the calibration invariants EXPERIMENTS.md reports —
// the orderings that must never regress, independent of absolute numbers.

func TestLatencyProbeOrderings(t *testing.T) {
	cfg := DefaultConfig()
	for _, plat := range []struct {
		name string
		p    cpu.Platform
	}{{"Rocket", cpu.RocketPlatform()}, {"BOOM", cpu.BOOMPlatform()}} {
		for _, tc := range []TestCase{TC1, TC2, TC3} {
			lat := map[monitor.Mode]uint64{}
			for _, mode := range AllModes {
				v, err := latencyProbe(plat.p, mode, tc, false, cfg)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", plat.name, mode, tc, err)
				}
				lat[mode] = v
			}
			pmp, pmpt, hpmp := lat[monitor.ModePMP], lat[monitor.ModePMPT], lat[monitor.ModeHPMP]
			if !(pmp <= hpmp && hpmp < pmpt) {
				t.Errorf("%s %v: ordering violated: PMP=%d HPMP=%d PMPT=%d",
					plat.name, tc, pmp, hpmp, pmpt)
			}
			// HPMP must land inside the paper's qualitative band: it
			// removes at least 20%% of the PMPT-over-PMP gap.
			saved := float64(pmpt-hpmp) / float64(pmpt-pmp)
			if saved < 0.20 {
				t.Errorf("%s %v: HPMP saves only %.0f%% of the gap", plat.name, tc, 100*saved)
			}
		}
		// TC4 (TLB hit): all modes identical (permission inlining).
		var tc4 []uint64
		for _, mode := range AllModes {
			v, err := latencyProbe(plat.p, mode, TC4, false, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc4 = append(tc4, v)
		}
		if tc4[0] != tc4[1] || tc4[1] != tc4[2] {
			t.Errorf("%s TC4 latencies must be identical: %v", plat.name, tc4)
		}
	}
}

func TestVirtProbeOrderings(t *testing.T) {
	cfg := DefaultConfig()
	for _, vcase := range []string{"TC1", "After hfence.g"} {
		lat := map[virtMethod]uint64{}
		for _, m := range []virtMethod{vmPMP, vmPMPT, vmHPMP, vmHPMPGPT} {
			v, err := virtProbe(m, vcase, cfg)
			if err != nil {
				t.Fatalf("%v/%s: %v", m, vcase, err)
			}
			lat[m] = v
		}
		if !(lat[vmPMP] <= lat[vmHPMPGPT] && lat[vmHPMPGPT] <= lat[vmHPMP] && lat[vmHPMP] < lat[vmPMPT]) {
			t.Errorf("%s: PMP=%d ≤ HPMP-GPT=%d ≤ HPMP=%d < PMPT=%d violated",
				vcase, lat[vmPMP], lat[vmHPMPGPT], lat[vmHPMP], lat[vmPMPT])
		}
	}
}

func TestFragProbeQuadrants(t *testing.T) {
	cfg := DefaultConfig()
	// In all four (VA, PA) quadrants: PMP < HPMP < PMPT (Fig. 15's claim),
	// and fragmentation only makes things worse.
	type key struct{ va, pa bool }
	lat := map[key]map[monitor.Mode]uint64{}
	for _, va := range []bool{false, true} {
		for _, pa := range []bool{false, true} {
			k := key{va, pa}
			lat[k] = map[monitor.Mode]uint64{}
			for _, mode := range AllModes {
				v, err := fragProbe(mode, va, pa, false, 16, cfg)
				if err != nil {
					t.Fatalf("%v %v %v: %v", va, pa, mode, err)
				}
				lat[k][mode] = v
			}
			if !(lat[k][monitor.ModePMP] < lat[k][monitor.ModeHPMP] &&
				lat[k][monitor.ModeHPMP] < lat[k][monitor.ModePMPT]) {
				t.Errorf("quadrant va=%v pa=%v: %v", va, pa, lat[k])
			}
		}
	}
	for _, mode := range AllModes {
		if lat[key{true, true}][mode] <= lat[key{false, false}][mode] {
			t.Errorf("%v: double fragmentation must be the worst quadrant", mode)
		}
	}
}

func TestHostSystemMatchesPMPBaseline(t *testing.T) {
	// §8.4: "The secure and non-secure baselines exhibit similar results as
	// they both utilize PMP" — a cold probe on the Host system must cost
	// the same reference count as Penglai-PMP.
	cfg := DefaultConfig()
	sys, err := NewHostSystem(cpu.RocketPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEnv("host", 1024)
	if err != nil {
		t.Fatal(err)
	}
	va := e.P.Heap()
	e.Store64(va, 1)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	sys.Mach.MMU.FlushTLB()
	var res mmu.Result
	err = sys.Mach.MMU.Access(va, perm.Read, perm.U, sys.Mach.Core.Now, &res)
	if err != nil || res.Faulted() {
		t.Fatalf("%+v %v", res, err)
	}
	if res.TotalRefs() != 4 {
		t.Errorf("Host-PMP cold access = %d refs, want 4", res.TotalRefs())
	}
}
