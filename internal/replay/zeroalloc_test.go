package replay

import (
	"testing"

	"hpmp/internal/obs"
)

// steadyEngine returns an engine whose page table already maps the synthetic
// trace's first-touch round, plus a full replay block (BlockMax events) of
// steady-state re-touches over those pages.
func steadyEngine(tb testing.TB) (*Engine, []obs.Event) {
	tb.Helper()
	e, err := New(testConfig())
	if err != nil {
		tb.Fatal(err)
	}
	warm := syntheticTrace()[:64]
	if err := e.Run(warm); err != nil {
		tb.Fatal(err)
	}
	if e.Stats.Divergences != 0 {
		tb.Fatalf("warmup diverged: %s", e.Stats.First)
	}
	block := make([]obs.Event, 0, BlockMax)
	for len(block) < BlockMax {
		block = append(block, warm[len(block)%len(warm)])
	}
	return e, block
}

// TestReplayStepZeroAllocs pins the replay hot loop: once a trace's pages
// are mapped, Step (including the AccessBatch flush every BlockMax events)
// must not allocate. This is the same steady-state contract the
// TestAccessBatchZeroAllocs pin enforces one layer down.
func TestReplayStepZeroAllocs(t *testing.T) {
	e, block := steadyEngine(t)
	var stepErr error
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := e.Step(block[i%len(block)]); err != nil {
			stepErr = err
		}
		i++
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Divergences != 0 {
		t.Fatalf("steady-state replay diverged: %s", e.Stats.First)
	}
	if allocs != 0 {
		t.Errorf("Step allocates %.1f times per op in steady state, want 0", allocs)
	}
}

// BenchmarkReplayBlock measures replaying one full block (BlockMax events)
// of steady-state accesses, batch flush included.
func BenchmarkReplayBlock(b *testing.B) {
	e, block := steadyEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range block {
			if err := e.Step(block[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if e.Stats.Divergences != 0 {
		b.Fatalf("benchmark replay diverged: %s", e.Stats.First)
	}
	b.ReportMetric(float64(len(block)), "events/block")
}
