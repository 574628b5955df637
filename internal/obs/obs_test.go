package obs

import (
	"bytes"
	"strings"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

func TestEnumStringRoundTrips(t *testing.T) {
	for _, k := range []Kind{KindAccess, KindPTEFetch, KindPMPTFetch, KindCheck} {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("Kind %d: round trip via %q failed", k, k.String())
		}
	}
	for _, f := range []Fault{FaultNone, FaultPage, FaultProt, FaultAccess} {
		got, ok := FaultFromString(f.String())
		if !ok || got != f {
			t.Errorf("Fault %d: round trip via %q failed", f, f.String())
		}
	}
	for _, p := range []TLBPath{TLBNone, TLBL1, TLBL2, TLBMiss} {
		got, ok := TLBPathFromString(p.String())
		if !ok || got != p {
			t.Errorf("TLBPath %d: round trip via %q failed", p, p.String())
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Error("KindFromString accepted an unknown name")
	}
}

func TestTracerSamplingKeepsFixedOrdinals(t *testing.T) {
	tr := NewTracer(16, 4)
	for i := 0; i < 20; i++ {
		tr.Emit(Event{Kind: KindAccess})
	}
	if tr.Seen() != 20 {
		t.Errorf("Seen = %d, want 20", tr.Seen())
	}
	// Ordinals 0, 4, 8, 12, 16 pass the stride.
	if tr.Sampled() != 5 {
		t.Errorf("Sampled = %d, want 5", tr.Sampled())
	}
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("kept %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(4*i) {
			t.Errorf("event %d has Seq %d, want %d", i, ev.Seq, 4*i)
		}
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tr := NewTracer(4, 1)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindAccess})
	}
	evs := tr.Events()
	if len(evs) != 4 || tr.Kept() != 4 {
		t.Fatalf("kept %d/%d events, want 4", len(evs), tr.Kept())
	}
	for i, ev := range evs {
		if ev.Seq != uint64(6+i) {
			t.Errorf("event %d has Seq %d, want %d (oldest-first window)", i, ev.Seq, 6+i)
		}
	}
}

// TestTracerTallyCoversWholeRun: the tally counts every access event
// offered, including ones sampling skipped and the ring evicted, and
// ignores the other kinds.
func TestTracerTallyCoversWholeRun(t *testing.T) {
	tr := NewTracer(2, 3)
	events := []Event{
		{Kind: KindAccess, Access: perm.Read, TLB: TLBL1, Refs: 1},
		{Kind: KindPTEFetch, Level: 2, Refs: 1},
		{Kind: KindAccess, Access: perm.Write, TLB: TLBMiss, Refs: 7, ChkRefs: 3},
		{Kind: KindAccess, Access: perm.Fetch, TLB: TLBL2, Refs: 1},
		{Kind: KindCheck, Refs: 2, ChkRefs: 2},
		{Kind: KindAccess, Access: perm.Read, TLB: TLBMiss, Refs: 4, ChkRefs: 1, Fault: FaultPage},
		{Kind: KindAccess, Access: perm.Read, TLB: TLBL1, Refs: 1},
	}
	for _, ev := range events {
		tr.Emit(ev)
	}
	want := Tally{
		Accesses: 5,
		ByAccess: [perm.Fetch + 1]uint64{perm.Read: 3, perm.Write: 1, perm.Fetch: 1},
		ByTLB:    [numTLBPaths]uint64{TLBL1: 2, TLBL2: 1, TLBMiss: 2},
		Faults:   1,
		Refs:     14,
		ChkRefs:  4,
	}
	if got := tr.Tally(); got != want {
		t.Errorf("Tally = %+v, want %+v", got, want)
	}
	if tr.Kept() != 2 {
		t.Fatalf("kept %d, want 2: the tally must not depend on the ring", tr.Kept())
	}
}

func TestTracerEmitDoesNotAllocate(t *testing.T) {
	tr := NewTracer(64, 2)
	ev := Event{
		Kind: KindAccess, Access: perm.Read, TLB: TLBL1,
		VA: 0x1000, PA: 0x2000, Refs: 1, Cycles: 3, Level: -1,
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(ev)
	})
	if allocs != 0 {
		t.Errorf("Emit allocates %.1f times per op, want 0", allocs)
	}
}

func sampleTracer() *Tracer {
	tr := NewTracer(8, 2)
	events := []Event{
		{Kind: KindAccess, Access: perm.Read, TLB: TLBL1, VA: 0x1000, PA: 0x800_0000, Refs: 1, Cycles: 4, Level: -1},
		{Kind: KindPTEFetch, Access: perm.Read, Level: 2, Hit: true, Cycles: 1},
		{Kind: KindAccess, Access: perm.Write, TLB: TLBMiss, VA: 0x2000, PA: 0x800_1000, Refs: 5, ChkRefs: 2, Cycles: 40, Level: -1, Fault: FaultProt},
		{Kind: KindPMPTFetch, Access: perm.Read, PA: 0x800_2000, Level: -1, Refs: 1, ChkRefs: 1, Cycles: 10},
		{Kind: KindCheck, Access: perm.Write, PA: 0x800_3000, Level: 3, Hit: true, Refs: 2, ChkRefs: 2, Cycles: 20},
		{Kind: KindAccess, Access: perm.Fetch, TLB: TLBL2, VA: 0x3000, PA: 0x800_4000, Refs: 1, Cycles: 8, Level: -1},
	}
	for _, ev := range events {
		tr.Emit(ev)
	}
	return tr
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "unit-test", tr); err != nil {
		t.Fatal(err)
	}
	h, events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != TraceSchema || h.Source != "unit-test" {
		t.Errorf("header = %+v", h)
	}
	if h.Seen != tr.Seen() || h.Sampled != tr.Sampled() || h.Kept != tr.Kept() {
		t.Errorf("header counters %+v do not match tracer (%d/%d/%d)",
			h, tr.Seen(), tr.Sampled(), tr.Kept())
	}
	want := tr.Events()
	if len(events) != len(want) {
		t.Fatalf("read %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d: read %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestReadTraceRejectsWrongSchema(t *testing.T) {
	in := strings.NewReader(`{"schema":"hpmp-trace/v999","source":"x"}` + "\n")
	if _, _, err := ReadTrace(in); err == nil {
		t.Error("wrong schema must be rejected")
	}
	if _, _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Error("empty file must be rejected")
	}
}

func TestFormatEventCoversEveryKind(t *testing.T) {
	for _, ev := range sampleTracer().Events() {
		line := FormatEvent(ev)
		if !strings.Contains(line, ev.Kind.String()) {
			t.Errorf("formatted line %q does not name the kind %q", line, ev.Kind)
		}
	}
	faulted := FormatEvent(Event{Kind: KindAccess, Access: perm.Read, Fault: FaultPage})
	if !strings.Contains(faulted, "FAULT=page") {
		t.Errorf("fault missing from %q", faulted)
	}
}

func TestDeriveRates(t *testing.T) {
	c := map[string]uint64{
		"ptw.pwc_hit":     30,
		"ptw.pte_fetch":   10,
		"pmptw.cache_hit": 8,
		"pmptw.mem_ref":   2,
		"mmu.data_l1":     75,
		"mmu.data_l2":     25,
		"ptw.walk_ok":     98,
		"ptw.page_fault":  2,
		"mmu.page_fault":  2,
	}
	d := DeriveRates(c)
	if got := d["ptw.pwc_hit_rate"]; got != 0.75 {
		t.Errorf("pwc_hit_rate = %v, want 0.75", got)
	}
	if got := d["pmptw.cache_hit_rate"]; got != 0.8 {
		t.Errorf("cache_hit_rate = %v, want 0.8", got)
	}
	if got := d["mmu.data_l1_frac"]; got != 0.75 {
		t.Errorf("data_l1_frac = %v, want 0.75", got)
	}
	if got := d["mmu.fault_rate"]; got != 0.02 {
		t.Errorf("fault_rate = %v, want 0.02", got)
	}
	// Zero denominators: the keys must be absent, not zero.
	empty := DeriveRates(map[string]uint64{})
	if len(empty) != 0 {
		t.Errorf("rates over empty counters = %v, want none", empty)
	}
}

func TestMetricsJSONShape(t *testing.T) {
	m := NewMetrics("fig10", map[string]uint64{"mmu.access": 42})
	m.Title = "latency micro"
	m.Figure = "Fig. 10"
	m.Status = "ok"
	m.Quick = true
	m.WallSeconds = 0.25
	m.SetTracer(sampleTracer())
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"schema": "hpmp-metrics/v1"`,
		`"experiment": "fig10"`,
		`"figure": "Fig. 10"`,
		`"status": "ok"`,
		`"quick": true`,
		`"wall_seconds": 0.25`,
		`"mmu.access": 42`,
		`"sample_every": 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics JSON missing %s:\n%s", want, out)
		}
	}
}

func TestMetricsPrometheusShape(t *testing.T) {
	m := NewMetrics("fig10", map[string]uint64{
		"mmu.data_l1": 3,
		"mmu.data_l2": 1,
	})
	m.WallSeconds = 1.5
	m.SetTracer(sampleTracer())
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hpmp_experiment_wall_seconds gauge",
		`hpmp_experiment_wall_seconds{experiment="fig10"} 1.5`,
		`hpmp_counter{experiment="fig10",counter="mmu.data_l1"} 3`,
		`hpmp_derived{experiment="fig10",metric="mmu.data_l1_frac"} 0.75`,
		`hpmp_trace_events{experiment="fig10",stage="seen"} 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two renders are byte-identical.
	var buf2 bytes.Buffer
	if err := m.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("prometheus rendering is not deterministic")
	}
}

func TestPromEscape(t *testing.T) {
	if got := PromEscape(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Errorf("PromEscape = %q", got)
	}
}

var sinkVA addr.VA

func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(DefaultRing, 1)
	ev := Event{Kind: KindAccess, Access: perm.Read, TLB: TLBL1, VA: 0x1000, PA: 0x2000, Level: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
	sinkVA = ev.VA
}
