package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"hpmp/internal/bench"
	"hpmp/internal/stats"
)

// digestSchema names the testdata/digests.json format.
const digestSchema = "hpmp-bench-digests/v1"

// committedDigests is the reference the correctness gate checks against.
// Only an intentional change of simulated behaviour may refresh it
// (-update-digests); a speed-up must leave every digest as it is.
//
//go:embed testdata/digests.json
var committedDigests []byte

// digestSet holds the expected digests of the simulated outputs.
type digestSet struct {
	Schema string `json:"schema"`
	// Eval maps each experiment ID to the digests of its quick-size result.
	Eval map[string]expDigest `json:"eval"`
	// Replay holds the per-mode counter digests of one replay-walk round at
	// ReplaySeed and ReplayEvents.
	ReplaySeed   uint64            `json:"replay_seed"`
	ReplayEvents int               `json:"replay_events"`
	Replay       map[string]string `json:"replay"`
}

// expDigest pins one experiment: its rendered tables and its counters plus
// latency histograms.
type expDigest struct {
	Render   string `json:"render"`
	Counters string `json:"counters"`
}

func loadDigests(data []byte) (*digestSet, error) {
	var d digestSet
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing digests: %w", err)
	}
	if d.Schema != digestSchema {
		return nil, fmt.Errorf("digests schema %q, want %q", d.Schema, digestSchema)
	}
	return &d, nil
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// resultDigest digests one experiment result.
func resultDigest(res *bench.Result) expDigest {
	hists := make(map[string]stats.HistogramSnapshot, len(res.Hists))
	for name, h := range res.Hists {
		hists[name] = h.Snapshot()
	}
	return expDigest{Render: sha(res.Render()), Counters: countersDigest(res.Counters.Snapshot(), hists)}
}

// countersDigest digests counters and histograms in a canonical order, so
// the digest does not depend on the order counters were first used in.
func countersDigest(counters map[string]uint64, hists map[string]stats.HistogramSnapshot) string {
	var b strings.Builder
	for _, k := range sortedKeys(counters) {
		fmt.Fprintf(&b, "%s %d\n", k, counters[k])
	}
	for _, k := range sortedKeys(hists) {
		data, _ := json.Marshal(hists[k]) // a struct of slices and integers always marshals
		fmt.Fprintf(&b, "%s %s\n", k, data)
	}
	return sha(b.String())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// updateDigests recomputes every digest from one quick pass of the
// registry and one replay-walk round at the default size, and writes them
// to path.
func updateDigests(path string) error {
	d := &digestSet{Schema: digestSchema, Eval: map[string]expDigest{}}
	exps, err := resolveExperiments(nil)
	if err != nil {
		return err
	}
	for _, o := range bench.RunAll(context.Background(), evalConfig(), exps, bench.RunOptions{Parallel: 1}, nil) {
		if !o.OK() {
			return fmt.Errorf("%s: %v", o.Experiment.ID, o.Err)
		}
		d.Eval[o.Experiment.ID] = resultDigest(o.Result)
	}
	d.ReplaySeed, d.ReplayEvents = 1, defaultSizes().replayEvents
	d.Replay = map[string]string{}
	events := walkStream(d.ReplaySeed, d.ReplayEvents)
	for _, mode := range replayModes {
		eng, err := replayOnce(mode, events, nil)
		if err != nil {
			return err
		}
		d.Replay[string(mode)] = countersDigest(eng.Counters(), eng.Histograms())
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
