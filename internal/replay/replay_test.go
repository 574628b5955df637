package replay

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/simcfg"
)

// testConfig is a small replay target every mode can program.
func testConfig() simcfg.Machine {
	c := simcfg.Default()
	c.MemSize = 256 * addr.MiB
	return c
}

// ev builds one recorded access event.
func ev(va addr.VA, pa addr.PA, k perm.Access, f obs.Fault) obs.Event {
	return obs.Event{Kind: obs.KindAccess, Access: k, VA: va, PA: pa, Fault: f, TLB: obs.TLBMiss}
}

// syntheticTrace is a deterministic access stream with first-touches,
// steady-state re-touches, a page fault, and a page migration (remap) — the
// full derived-state vocabulary.
func syntheticTrace() []obs.Event {
	const (
		vaBase = addr.VA(0x4000_0000)
		paBase = addr.PA(0x80_0000)
		pages  = 64
	)
	var evs []obs.Event
	// First touch, then two re-touch rounds.
	for round := 0; round < 3; round++ {
		for i := 0; i < pages; i++ {
			va := vaBase + addr.VA(i)*addr.PageSize + 8
			pa := paBase + addr.PA(i)*addr.PageSize + 8
			kind := perm.Read
			if i%3 == 1 {
				kind = perm.Write
			} else if i%3 == 2 {
				kind = perm.Fetch
			}
			evs = append(evs, ev(va, pa, kind, obs.FaultNone))
		}
	}
	// Page 0 is unmapped (a demand-unmap), faults, and comes back at a new
	// frame — the migration path.
	evs = append(evs,
		ev(vaBase+8, 0, perm.Read, obs.FaultPage),
		ev(vaBase+8, paBase+addr.PA(pages)*addr.PageSize+8, perm.Read, obs.FaultNone),
	)
	return evs
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*simcfg.Machine)
	}{
		{"platform", func(c *simcfg.Machine) { c.Platform = "cva6" }},
		{"mode", func(c *simcfg.Machine) { c.Mode = "tdx" }},
		{"mem-small", func(c *simcfg.Machine) { c.MemSize = 16 * addr.MiB }},
		{"mem-unaligned", func(c *simcfg.Machine) { c.MemSize = 192*addr.MiB + 4096 }},
		{"depth", func(c *simcfg.Machine) { c.TableDepth = 5 }},
		{"depth-mode", func(c *simcfg.Machine) { c.TableDepth = 3; c.Mode = simcfg.ModePMP }},
	}
	for _, tc := range cases {
		c := testConfig()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted: %+v", tc.name, c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
}

func TestReplaySyntheticTrace(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	evs := syntheticTrace()
	if err := e.Run(evs); err != nil {
		t.Fatal(err)
	}
	s := e.Stats
	if s.Divergences != 0 {
		t.Fatalf("replay diverged %d times; first: %s", s.Divergences, s.First)
	}
	if want := uint64(len(evs)); s.Events != want || s.Accesses != want {
		t.Errorf("events=%d accesses=%d, want both %d", s.Events, s.Accesses, want)
	}
	// 64 first-touched pages, plus the migrated page coming back as a fresh
	// map (it was unmapped by the fault, so it is not a Remap).
	if s.Maps != 65 || s.Remaps != 0 {
		t.Errorf("maps=%d remaps=%d, want 65/0", s.Maps, s.Remaps)
	}
	if s.Unmaps != 1 || s.Faults != 1 {
		t.Errorf("unmaps=%d faults=%d, want 1/1 (the migration)", s.Unmaps, s.Faults)
	}
	if s.Skipped() != 0 {
		t.Errorf("skipped=%d, want 0", s.Skipped())
	}
	if e.Now() == 0 {
		t.Error("replay clock did not advance")
	}
}

// TestReplayRemap covers the page-moved path: same VA, different recorded
// PA with no intervening fault.
func TestReplayRemap(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	va := addr.VA(0x4000_0000 + 16)
	evs := []obs.Event{
		ev(va, 0x80_0010, perm.Read, obs.FaultNone),
		ev(va, 0x90_0010, perm.Read, obs.FaultNone),
		ev(va, 0x90_0010, perm.Read, obs.FaultNone),
	}
	if err := e.Run(evs); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Divergences != 0 {
		t.Fatalf("diverged: %s", e.Stats.First)
	}
	if e.Stats.Maps != 1 || e.Stats.Remaps != 1 {
		t.Errorf("maps=%d remaps=%d, want 1/1", e.Stats.Maps, e.Stats.Remaps)
	}
}

func TestReplayAllModes(t *testing.T) {
	type variant struct {
		name  string
		mut   func(*simcfg.Machine)
		wants []string // counter keys that must be nonzero
	}
	variants := []variant{
		{"none", func(c *simcfg.Machine) { c.Mode = simcfg.ModeNone }, []string{"ptw.walk_ok"}},
		{"pmp", func(c *simcfg.Machine) { c.Mode = simcfg.ModePMP }, []string{"hpmp.segment_check"}},
		{"pmpt", func(c *simcfg.Machine) { c.Mode = simcfg.ModePMPT }, []string{"hpmp.table_check", "pmptw.walk"}},
		{"hpmp", func(c *simcfg.Machine) { c.Mode = simcfg.ModeHPMP }, []string{"hpmp.segment_check", "hpmp.table_check"}},
		{"pmpt-depth3", func(c *simcfg.Machine) { c.Mode = simcfg.ModePMPT; c.TableDepth = 3 }, []string{"pmptw.walk"}},
		{"hpmp-depth4", func(c *simcfg.Machine) { c.Mode = simcfg.ModeHPMP; c.TableDepth = 4 }, []string{"pmptw.walk"}},
		{"boom-pmptw-cache", func(c *simcfg.Machine) { c.Platform = "boom"; c.Mode = simcfg.ModePMPT; c.PMPTWCache = 8 }, []string{"pmptw.cache_hit"}},
		{"tiny-tlb", func(c *simcfg.Machine) { c.L2TLBEntries = 4; c.PWCEntries = -1 }, []string{"stlb.miss"}},
		// Every cache structure explicitly absent: the result must be a
		// legal no-op-cache machine.
		{"no-caches", func(c *simcfg.Machine) {
			c.Mode = simcfg.ModePMPT
			c.L2TLBEntries = -1
			c.PWCEntries = -1
		}, []string{"ptw.walk_ok", "hpmp.table_check"}},
	}
	evs := syntheticTrace()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := testConfig()
			v.mut(&cfg)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(evs); err != nil {
				t.Fatal(err)
			}
			if e.Stats.Divergences != 0 {
				t.Fatalf("diverged %d times; first: %s", e.Stats.Divergences, e.Stats.First)
			}
			snap := e.Counters()
			for _, key := range v.wants {
				if snap[key] == 0 {
					t.Errorf("counter %s is zero; config %s", key, cfg)
				}
			}
		})
	}
}

// TestReplayAnyValidMemSize replays under the permission-table modes at
// DRAM sizes simcfg accepts that are not powers of two: the tables cover
// the NAPOT ceiling of DRAM and grant DRAM up to its last word.
func TestReplayAnyValidMemSize(t *testing.T) {
	for _, mib := range []uint64{160, 192, 320} {
		for _, mode := range []simcfg.Mode{simcfg.ModePMPT, simcfg.ModeHPMP} {
			for _, depth := range []int{2, 3, 4} {
				cfg := testConfig()
				cfg.MemSize, cfg.Mode, cfg.TableDepth = mib*addr.MiB, mode, depth
				t.Run(cfg.String(), func(t *testing.T) {
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					last := addr.PA(cfg.MemSize - 8)
					evs := append(syntheticTrace(), ev(0x5000_0000+addr.VA(last.Offset()), last, perm.Read, obs.FaultNone))
					if err := e.Run(evs); err != nil {
						t.Fatal(err)
					}
					if e.Stats.Divergences != 0 {
						t.Fatalf("diverged %d times; first: %s", e.Stats.Divergences, e.Stats.First)
					}
					if e.Counters()["hpmp.table_check"] == 0 {
						t.Error("no permission-table check ran")
					}
				})
			}
		}
	}
}

// TestReplaySkips pins the non-replayable vocabulary: each class is counted
// and never executed.
func TestReplaySkips(t *testing.T) {
	cfg := testConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := []obs.Event{
		{Kind: obs.KindPTEFetch},
		{Kind: obs.KindPMPTFetch},
		{Kind: obs.KindCheck},
		ev(0x4000_0000, 0x80_0000, perm.Read, obs.FaultProt),
		ev(0x4000_0000, 0x80_0000, perm.Read, obs.FaultAccess),
		ev(0x4000_0000, 0, perm.Read, obs.FaultNone),
		ev(0x4000_0000, addr.PA(cfg.MemSize)+4096, perm.Read, obs.FaultNone),
		// Sv48-only VA: unmappable on the Sv39 replay table.
		ev(addr.VA(1)<<40, 0x80_0000, perm.Read, obs.FaultNone),
	}
	if err := e.Run(evs); err != nil {
		t.Fatal(err)
	}
	s := e.Stats
	if s.Accesses != 0 {
		t.Fatalf("executed %d accesses, want 0 (all events skipped)", s.Accesses)
	}
	if s.SkippedKind != 3 || s.SkippedProt != 1 || s.SkippedAccessFault != 1 ||
		s.SkippedZeroPA != 1 || s.SkippedOutOfRange != 1 || s.SkippedUnmappable != 1 {
		t.Errorf("skip counts wrong: %+v", s)
	}
	if s.Skipped() != uint64(len(evs)) {
		t.Errorf("Skipped()=%d, want %d", s.Skipped(), len(evs))
	}
}

// TestReplayDivergenceDetected feeds a trace whose recorded PA cannot be
// reproduced (its page offset disagrees with the VA's) and requires the
// engine to flag it rather than silently pass.
func TestReplayDivergenceDetected(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	evs := []obs.Event{
		// Offset 8 on the VA side, 16 on the PA side: the replayed access
		// lands at base+8, not the recorded base+16.
		ev(0x4000_0008, 0x80_0010, perm.Read, obs.FaultNone),
	}
	if err := e.Run(evs); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Divergences != 1 {
		t.Fatalf("divergences=%d, want 1", e.Stats.Divergences)
	}
	if !strings.Contains(e.Stats.First, "pa mismatch") {
		t.Errorf("first divergence %q does not name the mismatch", e.Stats.First)
	}
	if m := e.Metrics("synthetic"); m.Status != "divergent" {
		t.Errorf("metrics status %q, want divergent", m.Status)
	}
}

// TestReplayDeterminism is the first equivalence guarantee: two fresh
// replays of the same trace on the same config produce byte-identical
// counter snapshots and Prometheus text.
func TestReplayDeterminism(t *testing.T) {
	evs := syntheticTrace()
	run := func() (*Engine, *obs.Metrics) {
		e, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(evs); err != nil {
			t.Fatal(err)
		}
		return e, e.Metrics("synthetic")
	}
	e1, m1 := run()
	e2, m2 := run()
	if !reflect.DeepEqual(e1.Counters(), e2.Counters()) {
		t.Error("counter snapshots differ between identical replays")
	}
	var p1, p2 bytes.Buffer
	if err := m1.WritePrometheus(&p1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WritePrometheus(&p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Error("Prometheus text differs between identical replays")
	}
}

// TestReplayFixpoint is the second equivalence guarantee: capture a replay
// with TraceEvery=1, replay the captured trace on the same config, and the
// second replay's machine counters and histograms are byte-identical to the
// first's — replay is a fixpoint of record-then-replay.
func TestReplayFixpoint(t *testing.T) {
	evs := syntheticTrace()

	e1, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1<<16, 1)
	e1.SetTracer(tr)
	if err := e1.Run(evs); err != nil {
		t.Fatal(err)
	}
	if e1.Stats.Divergences != 0 {
		t.Fatalf("first replay diverged: %s", e1.Stats.First)
	}
	if tr.Seen() > uint64(tr.Kept()) {
		t.Fatalf("tracer ring overflowed (%d seen, %d kept): the fixpoint needs the full stream", tr.Seen(), tr.Kept())
	}

	e2, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Run(tr.Events()); err != nil {
		t.Fatal(err)
	}
	if e2.Stats.Divergences != 0 {
		t.Fatalf("fixpoint replay diverged: %s", e2.Stats.First)
	}
	if e2.Stats.Accesses != e1.Stats.Accesses {
		t.Fatalf("fixpoint replayed %d accesses, original executed %d", e2.Stats.Accesses, e1.Stats.Accesses)
	}

	c1, c2 := machineCounters(e1), machineCounters(e2)
	if !reflect.DeepEqual(c1, c2) {
		for k, v := range c1 {
			if c2[k] != v {
				t.Errorf("counter %s: original %d, fixpoint %d", k, v, c2[k])
			}
		}
		for k, v := range c2 {
			if _, ok := c1[k]; !ok {
				t.Errorf("counter %s: only in fixpoint (%d)", k, v)
			}
		}
	}
	if !reflect.DeepEqual(e1.Histograms(), e2.Histograms()) {
		t.Error("latency histograms differ between original and fixpoint replay")
	}
}

// machineCounters is a replay snapshot without the replay.* bookkeeping
// (which legitimately differs: the fixpoint replay sees the first replay's
// regenerated pte_fetch/check events as skipped kinds).
func machineCounters(e *Engine) map[string]uint64 {
	snap := e.Counters()
	for k := range snap {
		if strings.HasPrefix(k, "replay.") {
			delete(snap, k)
		}
	}
	return snap
}
