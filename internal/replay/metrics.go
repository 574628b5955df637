package replay

import (
	"hpmp/internal/obs"
	"hpmp/internal/stats"
)

// Counters merges the replay machine's counter sets — the same ones
// internal/bench observes on a live experiment machine — with the engine's
// own replay.* bookkeeping, into one deterministic snapshot.
func (e *Engine) Counters() map[string]uint64 {
	var agg stats.Counters
	e.mach.MergeCounters(&agg)
	snap := agg.Snapshot()
	s := &e.Stats
	for _, kv := range []struct {
		k string
		v uint64
	}{
		{"replay.events", s.Events},
		{"replay.accesses", s.Accesses},
		{"replay.blocks", s.Blocks},
		{"replay.maps", s.Maps},
		{"replay.remaps", s.Remaps},
		{"replay.unmaps", s.Unmaps},
		{"replay.faults", s.Faults},
		{"replay.skipped_kind", s.SkippedKind},
		{"replay.skipped_prot", s.SkippedProt},
		{"replay.skipped_access_fault", s.SkippedAccessFault},
		{"replay.skipped_zero_pa", s.SkippedZeroPA},
		{"replay.skipped_out_of_range", s.SkippedOutOfRange},
		{"replay.skipped_unmappable", s.SkippedUnmappable},
		{"replay.divergences", s.Divergences},
	} {
		snap[kv.k] = kv.v
	}
	return snap
}

// Histograms snapshots the replay machine's translation-path latency
// histograms, keyed by the same family names internal/bench exports.
func (e *Engine) Histograms() map[string]stats.HistogramSnapshot {
	out := map[string]stats.HistogramSnapshot{}
	e.mach.EachHistogram(func(family string, h *stats.Histogram) { out[family] = h.Snapshot() })
	return out
}

// Metrics builds the replay's hpmp-metrics/v1 snapshot: machine counters,
// derived rates, latency histograms, and replay bookkeeping, ready for
// `hpmpsim diff` against any other replay of the same trace. Status is
// "ok", or "divergent" when any replayed access failed to reproduce its
// recorded outcome. The caller sets WallSeconds (wall time is run-to-run
// noise, not replay state).
func (e *Engine) Metrics(source string) *obs.Metrics {
	m := obs.NewMetrics(source, e.Counters())
	m.Title = "replay: " + e.cfg.String()
	m.Status = "ok"
	if e.Stats.Divergences > 0 {
		m.Status = "divergent"
	}
	m.Histograms = e.Histograms()
	return m
}
