package stats

import (
	"fmt"
	"sync"
	"testing"
)

// TestOwnershipConcurrency exercises the harness's concurrency model under
// the race detector: every worker goroutine owns its Counters, Histogram,
// and Table instances; aggregation happens only after the workers join.
// This is exactly how the parallel experiment runner uses the package.
func TestOwnershipConcurrency(t *testing.T) {
	const workers = 8
	results := make([]*Counters, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Counters{}
			h := DefaultLatencyHistogram()
			tb := NewTable("t", "a", "b")
			for i := 0; i < 1000; i++ {
				c.Add("ops", 1)
				c.Inc(fmt.Sprintf("worker.%d", w))
				h.Observe(uint64(i%4096 + 1))
				if i%100 == 0 {
					tb.AddRow(fmt.Sprint(i), fmt.Sprintf("%.2f", float64(i)/3))
				}
			}
			if h.Snapshot().Count != 1000 || tb.NumRows() != 10 {
				t.Errorf("worker %d: unexpected per-instance state", w)
			}
			results[w] = c
		}()
	}
	wg.Wait()

	var total Counters
	for _, c := range results {
		total.Merge(c)
	}
	if got := total.Snapshot()["ops"]; got != workers*1000 {
		t.Errorf("merged ops = %d, want %d", got, workers*1000)
	}
	for w := 0; w < workers; w++ {
		if got := total.Snapshot()[fmt.Sprintf("worker.%d", w)]; got != 1000 {
			t.Errorf("worker.%d = %d, want 1000", w, got)
		}
	}
}

// TestOwnershipConcurrencyHandles runs the handle-based hot path under the
// race detector with the same ownership discipline the simulator uses:
// each worker resolves handles on its own Counters at "construction time",
// bumps them through plain pointer increments, and the aggregator merges
// only after the workers have joined.
func TestOwnershipConcurrencyHandles(t *testing.T) {
	const workers = 8
	results := make([]*Counters, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Counters{}
			hit := c.Handle("tlb.hit")
			miss := c.Handle("tlb.miss")
			own := c.Handle(fmt.Sprintf("worker.%d", w))
			for i := 0; i < 7000; i++ {
				if i%7 == 0 {
					*miss++
				} else {
					*hit++
				}
				*own++
			}
			results[w] = c
		}()
	}
	wg.Wait()

	var total Counters
	agg := total.Handle("tlb.hit") // handle resolved before merging is fine
	for _, c := range results {
		total.Merge(c)
	}
	if *agg != workers*6000 {
		t.Errorf("merged tlb.hit = %d, want %d", *agg, workers*6000)
	}
	if got := total.Snapshot()["tlb.miss"]; got != workers*1000 {
		t.Errorf("merged tlb.miss = %d, want %d", got, workers*1000)
	}
}
