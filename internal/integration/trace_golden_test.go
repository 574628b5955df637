// Golden trace test: a tiny deterministic workload, traced with a fixed
// sampling stride, must serialize to byte-identical JSONL run after run.
// The simulator consults no clocks or PRNGs and the tracer samples on the
// event ordinal, so any diff here means the translation pipeline's observable
// behaviour (TLB routing, walk levels, fault kinds, cycle costs) changed —
// the trace-level analogue of cmd/hpmpsim's stdout golden.
package integration

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
)

var updateTrace = flag.Bool("update", false, "rewrite the golden trace file with current output")

// traceWorkload drives a small fixed access mix: sequential stores over a
// few pages (cold walks then TLB hits), a re-read pass (warm hits), one
// fetch, and one denied write — enough to produce every event kind.
func traceWorkload(t *testing.T) *obs.Tracer {
	t.Helper()
	mach, mon, k := bootStack(t, monitor.ModeHPMP)
	p, err := k.Spawn(kernel.Image{Name: "traced", TextPages: 4, DataPages: 4, HeapPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	e, err := k.NewEnv(p)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(256, 3)
	mach.SetTracer(tr)
	defer mach.SetTracer(nil)

	heap := p.Heap()
	for i := 0; i < 8; i++ {
		va := heap + addr.VA(i*addr.PageSize/2)
		e.Store64(va, uint64(i))
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		va := heap + addr.VA(i*addr.PageSize/2)
		if _, err := e.Load64(va), e.Err(); err != nil {
			t.Fatal(err)
		}
	}
	e.FetchAt(p.Code())
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	// A store into an enclave's region: translation succeeds if mapped, the
	// permission check denies — but a host process has no mapping there, so
	// this faults at the page level, exercising the fault path either way.
	enc, _, err := mon.CreateEnclave()
	if err != nil {
		t.Fatal(err)
	}
	secret := addr.Range{Base: 0x1000_0000, Size: 64 * addr.KiB}
	if _, _, err := mon.AddRegion(enc, secret, perm.RWX, monitor.LabelSlow); err != nil {
		t.Fatal(err)
	}
	e.Store64(addr.VA(0x7000_0000), 1) // unmapped: page fault, not traced (errors skip hooks)
	return tr
}

func TestGoldenTrace(t *testing.T) {
	tr := traceWorkload(t)
	if tr.Seen() == 0 || tr.Kept() == 0 {
		t.Fatalf("workload produced no trace events (seen=%d kept=%d)", tr.Seen(), tr.Kept())
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, "tiny-deterministic-workload", tr); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "tiny.trace.jsonl")
	if *updateTrace {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %d events)", golden, buf.Len(), tr.Kept())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from %s (re-run with -update if the change is intended)\ngot %d bytes, want %d",
			golden, buf.Len(), len(want))
	}

	// The golden must stay readable by the shared reader.
	h, events, err := obs.ReadTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if h.SampleEvery != 3 || len(events) != h.Kept {
		t.Errorf("golden header %+v inconsistent with %d events", h, len(events))
	}
}

// TestGoldenTraceIsDeterministic runs the workload twice and compares the
// serialized traces byte for byte, independent of the golden file.
func TestGoldenTraceIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := obs.WriteTrace(&a, "x", traceWorkload(t)); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTrace(&b, "x", traceWorkload(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two runs of the same workload produced different traces")
	}
}
