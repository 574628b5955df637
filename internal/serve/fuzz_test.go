package serve

import (
	"bytes"
	"testing"

	"hpmp/internal/bench"
	"hpmp/internal/obs"
	"hpmp/internal/simcfg"
)

// FuzzJobRequest drives the daemon's admission check, decodeJob, with
// arbitrary bodies. It must never panic, and every body it accepts must
// describe a job that passes validation: a machine and a bench config
// that validate, trace bounds within range, and a run job with
// experiments and no machine field but mem_mib.
func FuzzJobRequest(f *testing.F) {
	f.Add([]byte(lightJob))
	f.Add([]byte(`{"kind":"run","experiments":["all"],"quick":true,"machine":{"mem_mib":256}}`))
	f.Add([]byte(`{"kind":"run","experiments":["fig10"],"trace":true,"trace_every":4,"trace_keep":64,"workload":{"redis_requests":100}}`))
	f.Add([]byte(replayJob(f, `{"mode":"pmpt","table_depth":3}`)))
	for _, c := range workloadCeilings {
		f.Add([]byte(workloadJob(c.knob, c.max)))
		f.Add([]byte(workloadJob(c.knob, c.max+1)))
	}
	for _, c := range invalidJobs(f) {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		j, err := decodeJob(bytes.NewReader(body))
		if err != nil {
			return
		}
		req := j.Request
		if err := j.machine.Validate(); err != nil {
			t.Fatalf("accepted %q with an invalid machine: %v", body, err)
		}
		cfg := bench.DefaultConfig()
		cfg.MemSize = j.machine.MemSize
		if req.Workload != nil {
			cfg.Workload = *req.Workload
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted %q with an invalid bench config: %v", body, err)
		}
		if req.TraceEvery < 0 || req.TraceKeep < 0 || req.TraceKeep > obs.MaxRing {
			t.Fatalf("accepted %q with trace_every %d, trace_keep %d", body, req.TraceEvery, req.TraceKeep)
		}
		switch req.Kind {
		case "run":
			if len(j.exps) == 0 {
				t.Fatalf("accepted run job %q without experiments", body)
			}
			if req.Machine != nil && *req.Machine != (simcfg.Machine{MemSize: req.Machine.MemSize}) {
				t.Fatalf("accepted run job %q with machine fields beyond mem_mib", body)
			}
		case "replay":
			if req.TraceJSONL == "" {
				t.Fatalf("accepted replay job %q without a trace", body)
			}
		default:
			t.Fatalf("accepted %q of kind %q", body, req.Kind)
		}
	})
}
