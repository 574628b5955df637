package workloads

import (
	"sort"
	"testing"

	"hpmp/internal/monitor"
)

// TestShortFramePoolFails runs every workload with a user frame pool of
// exactly its footprint and of one to three frames less. At the footprint
// the run must reproduce the full-memory checksum; below it the last
// demand fault runs out of frames, and Run must report that instead of a
// checksum computed from the zeros the failed access left behind.
func TestShortFramePoolFails(t *testing.T) {
	// The frames the kernel maps for itself at boot: the smallest pool it
	// boots from (a pool of 0 pages would select the default one).
	bootFrames := sort.Search(1<<16, func(n int) bool {
		_, err := bootEnv(monitor.ModeHPMP, max(n, 1))
		return err == nil
	})
	var all []Workload
	all = append(all, RV8Suite()...)
	all = append(all, FuncBenchSuite()...)
	all = append(all, GAPSuite(9)...)
	all = append(all, &ImageChain{Size: 64})
	for _, w := range all {
		t.Run(w.Name(), func(t *testing.T) {
			e, err := bootEnv(monitor.ModeHPMP, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.Run(e)
			if err != nil {
				t.Fatal(err)
			}
			// The workload's process is the only one, so the kernel's
			// page faults are its demand-paged frames.
			footprint := bootFrames + int(e.K.Counters.Snapshot()["kernel.page_fault"])
			for short := 0; short <= 3 && footprint-short >= bootFrames; short++ {
				e, err := bootEnv(monitor.ModeHPMP, footprint-short)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Run(e)
				switch {
				case short == 0 && (err != nil || got != want):
					t.Errorf("pool of exactly the footprint (%d frames): checksum %#x, %v; want %#x", footprint, got, err, want)
				case short > 0 && err == nil:
					t.Errorf("pool %d frames short: checksum %#x with a nil error (full-memory checksum %#x)", short, got, want)
				}
			}
		})
	}
}
