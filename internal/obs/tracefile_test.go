package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hpmp/internal/perm"
)

// sampleTraceBytes serializes the shared sample tracer into trace-file form.
func sampleTraceBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "unit-test", sampleTracer()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadTraceTruncated(t *testing.T) {
	raw := sampleTraceBytes(t)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("sample trace too small: %d lines", len(lines))
	}
	cut := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	_, _, err := ReadTrace(strings.NewReader(cut))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("dropped final event line: err = %v, want truncation error", err)
	}
}

func TestReadTraceCorruptLine(t *testing.T) {
	raw := sampleTraceBytes(t)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	cases := []struct {
		name string
		line int // 1-based line to replace
		with string
	}{
		{"garbage-json", 3, `{"seq": not json`},
		{"unknown-kind", 2, `{"seq":0,"kind":"warp","access":"read","va":"0x0","pa":"0x0"}`},
		{"bad-address", 2, `{"seq":0,"kind":"access","access":"read","va":"zzz","pa":"0x0"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := append([]string(nil), lines...)
			mut[tc.line-1] = tc.with
			_, _, err := ReadTrace(strings.NewReader(strings.Join(mut, "\n") + "\n"))
			if err == nil {
				t.Fatal("corrupt line must be rejected")
			}
			want := "line " + strconv.Itoa(tc.line)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want mention of %q", err, want)
			}
		})
	}
}

func TestReadTraceSeqRegression(t *testing.T) {
	raw := sampleTraceBytes(t)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	// Swap the first two event lines: seqs go backwards at line 3.
	lines[1], lines[2] = lines[2], lines[1]
	_, _, err := ReadTrace(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err == nil || !strings.Contains(err.Error(), "seq") {
		t.Errorf("reordered events: err = %v, want seq-ordering error", err)
	}
	if err != nil && !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want the offending line number (3)", err)
	}
}

func TestReadTraceOverlongLine(t *testing.T) {
	raw := sampleTraceBytes(t)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	// A 2 MiB line overflows the scanner's 1 MiB cap; the error must still
	// carry a line number instead of surfacing as a bare bufio.ErrTooLong.
	lines[2] = `{"pad":"` + strings.Repeat("x", 2<<20) + `"}`
	_, _, err := ReadTrace(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("overlong line: err = %v, want error naming line 3", err)
	}
}

func TestReadTraceKeptMismatch(t *testing.T) {
	// Extra event lines beyond header.kept are as suspicious as missing ones.
	raw := string(sampleTraceBytes(t))
	extra := raw + `{"seq":99,"kind":"access","access":"read","va":"0x0","pa":"0x0"}` + "\n"
	_, _, err := ReadTrace(strings.NewReader(extra))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("extra event line: err = %v, want kept-mismatch error", err)
	}
	neg := strings.NewReader(`{"schema":"hpmp-trace/v1","source":"x","kept":-1}` + "\n")
	if _, _, err := ReadTrace(neg); err == nil {
		t.Error("negative kept count must be rejected")
	}
}

// edgeEvents are events whose lines sit at the edges of the canonical form:
// level -128 and 127, seq and cycles 2^64-1, refs 65535, a zero and a
// 16-digit address, and every kind, access, tlb and fault name.
var edgeEvents = []Event{
	{Seq: 0, Kind: KindAccess, Access: perm.Read, TLB: TLBL1, Level: -1, VA: 0x0, PA: 0x0},
	{Seq: 1, Kind: KindAccess, Access: perm.Write, TLB: TLBL2, Level: math.MinInt8, Fault: FaultPage,
		VA: 0xffff_ffff_ffff_ffff, PA: 0x8000_0000_0000_0000, Refs: math.MaxUint16, ChkRefs: math.MaxUint16},
	{Seq: 2, Kind: KindAccess, Access: perm.Fetch, TLB: TLBMiss, Level: math.MaxInt8, Fault: FaultProt,
		VA: 0x1000, PA: 0xabcdef, Refs: 5, ChkRefs: 2, Cycles: 40},
	{Seq: 3, Kind: KindPTEFetch, Access: perm.Read, Level: 2, Hit: true, PA: 0x8000_1ff8, Refs: 1, Cycles: 1},
	{Seq: 4, Kind: KindPMPTFetch, Access: perm.Read, Level: -1, PA: 0x8000_2000, Refs: 1, ChkRefs: 1, Cycles: 10},
	{Seq: 5, Kind: KindCheck, Access: perm.Write, Level: 3, Fault: FaultAccess, PA: 0x8000_3000, Refs: 2, ChkRefs: 2, Cycles: 20},
	{Seq: math.MaxUint64, Kind: KindCheck, Access: perm.Fetch, Level: 0, Hit: true, PA: 0x9, Cycles: math.MaxUint64},
}

// canonicalLine is ev's event line as the trace writer spells it.
func canonicalLine(t testing.TB, ev Event) string {
	t.Helper()
	b, err := json.Marshal(toJSON(ev))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// nearMisses respells canonical lines in ways encoding/json reads
// differently or not at all, or reads the same but the writer never
// emits. The fast decoder must hand every one of them on.
func nearMisses(t testing.TB) []string {
	t.Helper()
	first := canonicalLine(t, edgeEvents[2])
	last := canonicalLine(t, edgeEvents[len(edgeEvents)-1])
	return []string{
		strings.Replace(first, `"seq":2`, `"seq":02`, 1),
		strings.Replace(first, `"cycles":40`, `"cycles":040`, 1),
		strings.Replace(first, `"va":"0x1000"`, `"va":"0x01000"`, 1),
		strings.Replace(first, `"va":"0x1000"`, `"va":"0X1000"`, 1),
		strings.Replace(first, `"pa":"0xabcdef"`, `"pa":"0xABCDEF"`, 1),
		strings.Replace(first, `"pa":"0xabcdef"`, `"pa":"0x1_0"`, 1),
		strings.Replace(first, `"va":"0x1000"`, `"va":"0x10000000000000000"`, 1),
		strings.Replace(first, `"level":127`, `"level":128`, 1),
		strings.Replace(first, `"level":127`, `"level":-129`, 1),
		strings.Replace(first, `"level":127`, `"level":-0`, 1),
		strings.Replace(first, `"refs":5`, `"refs":65536`, 1),
		strings.Replace(first, `"chk_refs":2`, `"chk_refs":65536`, 1),
		strings.Replace(first, `"cycles":40`, `"cycles":4e1`, 1),
		strings.Replace(last, `"seq":18446744073709551615`, `"seq":18446744073709551616`, 1),
		" " + first,
		first + " ",
		first + "\r",
		strings.Replace(first, `"seq":2,`, `"seq": 2,`, 1),
		strings.Replace(first, `"seq":2,"kind":"access"`, `"kind":"access","seq":2`, 1),
		strings.Replace(first, `"seq":2,`, `"seq":2,"seq":3,`, 1),
		strings.Replace(first, `"seq"`, `"SEQ"`, 1),
		strings.Replace(first, `"access":"fetch"`, `"access":"fe\u0074ch"`, 1),
		strings.Replace(first, `"kind":"access"`, `"kind":"acc\"ess"`, 1),
		strings.Replace(first, `"fault":"prot"`, `"fault":"pr\u00f6t"`, 1),
		strings.Replace(first, `"fault":"prot"`, "\"fault\":\"pr\xc3\xb6t\"", 1),
		strings.Replace(first, `"hit":false`, `"hit":0`, 1),
		strings.Replace(first, `}`, `,"extra":1}`, 1),
	}
}

// TestDecodeEventLine pins both sides of the fast path: it decodes every
// line the writer emits to the event written, and hands every near miss
// on to encoding/json.
func TestDecodeEventLine(t *testing.T) {
	for _, ev := range edgeEvents {
		line := canonicalLine(t, ev)
		got, ok := decodeEventLine([]byte(line))
		if !ok || got != ev {
			t.Errorf("%s: decoded (%+v, %v), want %+v", line, got, ok, ev)
		}
	}
	for _, line := range nearMisses(t) {
		if ev, ok := decodeEventLine([]byte(line)); ok {
			t.Errorf("%s: decoded to %+v, want it handed on", line, ev)
		}
	}
}

// canonicalTrace writes n events, cycling through edgeEvents with fresh
// sequence numbers, through the trace writer.
func canonicalTrace(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	st, err := NewStreamTracer(&buf, Header{Source: "canonical", SampleEvery: 1, Ring: n,
		Seen: uint64(n), Sampled: uint64(n), Kept: n}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ev := edgeEvents[i%len(edgeEvents)]
		ev.Seq = uint64(i)
		if err := st.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadTraceAllocs pins the per-event allocation budget at zero: a
// canonical trace eight times longer costs at most two more allocations.
func TestReadTraceAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		raw := canonicalTrace(t, n)
		return testing.AllocsPerRun(10, func() {
			if _, events, err := ReadTrace(bytes.NewReader(raw)); err != nil || len(events) != n {
				t.Fatalf("read %d events, err %v; want %d", len(events), err, n)
			}
		})
	}
	small, large := allocs(256), allocs(2048)
	if large-small > 2 {
		t.Errorf("ReadTrace allocates %.0f times for 256 events and %.0f for 2048, want at most 2 more", small, large)
	}
}

// TestReadTraceLyingKept: the event slice is sized from the header's kept
// count only up to DefaultRing, so a header that claims 2^40 events over a
// one-event body still gets the truncation error without the reader
// allocating for the claim.
func TestReadTraceLyingKept(t *testing.T) {
	raw := `{"schema":"hpmp-trace/v1","source":"x","kept":1099511627776}` + "\n" +
		canonicalLine(t, edgeEvents[0]) + "\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadTrace(strings.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("err = %v, want the truncation error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("ReadTrace allocated %d bytes for a one-event body, want under 1 MiB", got)
	}
}

// FuzzReadTrace throws arbitrary byte streams at the trace reader. The
// reader must never panic, and on success the parsed stream must satisfy
// the format invariants ReadTrace promises: event count matches the
// header's kept count and sequence numbers strictly increase. Line by
// line, the fast decoder must either hand a line on or return exactly the
// event encoding/json and fromJSON decode from it.
func FuzzReadTrace(f *testing.F) {
	f.Add(sampleTraceBytes(f))
	// A minimal valid trace with zero events.
	empty := NewTracer(4, 1)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "fuzz-empty", empty); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"schema":"hpmp-trace/v1","source":"s","kept":1}` + "\n"))
	f.Add([]byte(`{"schema":"hpmp-trace/v1","source":"s","kept":1}` + "\n" +
		`{"seq":0,"kind":"access","access":"read","va":"0x1000","pa":"0x2000"}` + "\n"))
	raw := sampleTraceBytes(f)
	f.Add(raw[:len(raw)/2])
	for _, ev := range edgeEvents {
		f.Add([]byte(canonicalLine(f, ev)))
	}
	for _, line := range nearMisses(f) {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			fast, ok := decodeEventLine(line)
			if !ok {
				continue
			}
			var ej eventJSON
			if err := json.Unmarshal(line, &ej); err != nil {
				t.Fatalf("%q: fast decoder accepts what encoding/json rejects: %v", line, err)
			}
			slow, err := fromJSON(ej)
			if err != nil {
				t.Fatalf("%q: fast decoder accepts what fromJSON rejects: %v", line, err)
			}
			if fast != slow {
				t.Fatalf("%q: fast decoder returns %+v, encoding/json %+v", line, fast, slow)
			}
		}
		h, events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.Schema != TraceSchema {
			t.Fatalf("accepted schema %q", h.Schema)
		}
		if len(events) != h.Kept {
			t.Fatalf("accepted %d events with kept=%d", len(events), h.Kept)
		}
		for i := 1; i < len(events); i++ {
			if events[i].Seq <= events[i-1].Seq {
				t.Fatalf("accepted non-increasing seq at %d: %d then %d",
					i, events[i-1].Seq, events[i].Seq)
			}
		}
		// Every accepted event must survive a re-serialize/re-parse cycle.
		for i, ev := range events {
			rt, err := fromJSON(toJSON(ev))
			if err != nil {
				t.Fatalf("event %d does not round-trip: %v", i, err)
			}
			if rt != ev {
				t.Fatalf("event %d round-trips to %+v, want %+v", i, rt, ev)
			}
		}
	})
}
