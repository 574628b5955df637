package simcfg

import "fmt"

// WorkloadScale sizes the traffic-side workloads beyond the paper's
// defaults, so a daemon job can request million-key churn runs without a
// rebuild. The zero value means "tier default" everywhere — quick and
// full experiment sizes (and their byte-pinned goldens) are untouched
// unless a field is set.
type WorkloadScale struct {
	// RedisKeyspace is the miniredis benchmark keyspace: the number of
	// distinct keys command arguments draw from (0 = the paper's 1000).
	// Large values turn the SET/GET sweep into keyspace churn.
	RedisKeyspace int `json:"redis_keyspace,omitempty"`
	// RedisRequests is the per-command request count (0 = tier default:
	// 8 quick, 30 full).
	RedisRequests int `json:"redis_requests,omitempty"`
	// ServerlessReps is the per-function invocation count of the
	// serverless experiments (0 = the default 2, averaged).
	ServerlessReps int `json:"serverless_reps,omitempty"`
	// ColdStarts is the scen-coldflood invocation flood size (0 = tier
	// default: 4 quick, 12 full).
	ColdStarts int `json:"cold_starts,omitempty"`
}

// The largest value each WorkloadScale knob accepts. A daemon tenant sets
// them, and an experiment's simulated work grows with each knob except the
// keyspace, which only widens the keys' range; the ceilings keep one job
// within minutes while admitting every size the repo runs (the tier
// defaults, the daemon walkthrough's 100 requests and a million-key
// keyspace).
const (
	MaxRedisKeyspace  = 1 << 20
	MaxRedisRequests  = 1000
	MaxServerlessReps = 64
	MaxColdStarts     = 1024
)

// Validate rejects negative scales and scales above their ceilings.
func (w WorkloadScale) Validate() error {
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"redis_keyspace", w.RedisKeyspace, MaxRedisKeyspace},
		{"redis_requests", w.RedisRequests, MaxRedisRequests},
		{"serverless_reps", w.ServerlessReps, MaxServerlessReps},
		{"cold_starts", w.ColdStarts, MaxColdStarts},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("simcfg: workload scale %s must be in [0, %d] (got %d)", f.name, f.max, f.v)
		}
	}
	return nil
}

// Or returns v when it is positive, otherwise def — the one-line override
// pattern every consumer of a scale knob uses.
func Or(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
