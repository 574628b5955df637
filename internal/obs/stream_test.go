package obs

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// failingWriter accepts the first n bytes (retaining them, like a socket
// that carried them to the peer), then fails every write.
type failingWriter struct {
	n   int
	buf bytes.Buffer
}

func (f *failingWriter) Write(p []byte) (int, error) {
	room := f.n - f.buf.Len()
	if room >= len(p) {
		f.buf.Write(p)
		return len(p), nil
	}
	if room > 0 {
		f.buf.Write(p[:room])
	} else {
		room = 0
	}
	return room, fmt.Errorf("disk full")
}

// shortWriter reports one byte fewer than it was given, with no error —
// the io contract violation bufio must surface as io.ErrShortWrite.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return len(p) - 1, nil
}

// wrappedTracer overfills a small ring so the oldest-first iteration has
// to stitch the two ring halves back together.
func wrappedTracer() *Tracer {
	tr := NewTracer(4, 1)
	for i := 0; i < 11; i++ {
		tr.Emit(Event{Kind: KindAccess, Access: perm.Read, TLB: TLBL1,
			VA: addr.VA(0x1000 * (i + 1)), PA: 0x800_0000, Refs: 1, Cycles: uint64(i), Level: -1})
	}
	return tr
}

func TestEachMatchesEvents(t *testing.T) {
	for name, tr := range map[string]*Tracer{
		"partial": sampleTracer(),
		"wrapped": wrappedTracer(),
		"empty":   NewTracer(4, 1),
	} {
		var got []Event
		tr.Each(func(ev Event) bool {
			got = append(got, ev)
			return true
		})
		want := tr.Events()
		if len(got) != len(want) {
			t.Fatalf("%s: Each yielded %d events, Events %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d: Each %+v, Events %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestWriteTraceStreamEquivalence pins the acceptance criterion: the
// streamed writer produces byte-for-byte the output of the buffered one,
// at any flush stride, and the result round-trips through ReadTrace.
func TestWriteTraceStreamEquivalence(t *testing.T) {
	for name, tr := range map[string]*Tracer{
		"partial": sampleTracer(),
		"wrapped": wrappedTracer(),
		"empty":   NewTracer(4, 1),
	} {
		var buffered bytes.Buffer
		if err := WriteTrace(&buffered, "equiv", tr); err != nil {
			t.Fatalf("%s: WriteTrace: %v", name, err)
		}
		for _, stride := range []int{1, 2, 1 << 20} {
			var streamed bytes.Buffer
			flushes := 0
			err := WriteTraceStream(&streamed, "equiv", tr, stride, func() { flushes++ })
			if err != nil {
				t.Fatalf("%s stride %d: WriteTraceStream: %v", name, stride, err)
			}
			if !bytes.Equal(buffered.Bytes(), streamed.Bytes()) {
				t.Fatalf("%s stride %d: streamed output differs from buffered:\n--- buffered\n%s--- streamed\n%s",
					name, stride, buffered.Bytes(), streamed.Bytes())
			}
			if flushes < 2 { // header commit + Close tail at minimum
				t.Fatalf("%s stride %d: only %d flushes", name, stride, flushes)
			}
			h, events, err := ReadTrace(bytes.NewReader(streamed.Bytes()))
			if err != nil {
				t.Fatalf("%s stride %d: streamed output does not ReadTrace: %v", name, stride, err)
			}
			if h.Kept != tr.Kept() || len(events) != tr.Kept() {
				t.Fatalf("%s stride %d: read back %d events, kept=%d, tracer kept %d",
					name, stride, len(events), h.Kept, tr.Kept())
			}
		}
	}
}

// TestWriteTraceFailingWriter: both writers must propagate the sink's
// error — from the header write and from mid-stream — and the bytes that
// did land must never form a stream whose header lies about kept:
// ReadTrace has to reject the partial output.
func TestWriteTraceFailingWriter(t *testing.T) {
	tr := sampleTracer()
	var full bytes.Buffer
	if err := WriteTrace(&full, "fail", tr); err != nil {
		t.Fatal(err)
	}
	headerLen := bytes.IndexByte(full.Bytes(), '\n') + 1

	cases := []struct {
		name   string
		accept int
	}{
		{"nothing", 0},
		{"header-only", headerLen},
		{"mid-event", headerLen + 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for wname, write := range map[string]func(io.Writer) error{
				"buffered": func(w io.Writer) error { return WriteTrace(w, "fail", tr) },
				"streamed": func(w io.Writer) error { return WriteTraceStream(w, "fail", tr, 1, nil) },
			} {
				fw := &failingWriter{n: tc.accept}
				if err := write(fw); err == nil {
					t.Fatalf("%s: write into failing sink succeeded", wname)
				}
				if _, _, rerr := ReadTrace(bytes.NewReader(fw.buf.Bytes())); rerr == nil && tr.Kept() > 0 {
					t.Fatalf("%s: partial stream (%d bytes) parsed cleanly — header lies about kept",
						wname, fw.buf.Len())
				}
			}
		})
	}
}

func TestWriteTraceShortWriter(t *testing.T) {
	tr := sampleTracer()
	if err := WriteTrace(shortWriter{}, "short", tr); err == nil {
		t.Error("WriteTrace into a short writer must error")
	}
	if err := WriteTraceStream(shortWriter{}, "short", tr, 1, nil); err == nil {
		t.Error("WriteTraceStream into a short writer must error")
	}
}

func TestStreamTracerReconciliation(t *testing.T) {
	tr := sampleTracer()
	events := tr.Events()

	// Under-filling: the header declared Kept events; Close must refuse.
	var buf bytes.Buffer
	st, err := NewStreamTracer(&buf, tr.header("recon"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(events[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err == nil || !strings.Contains(err.Error(), "declared") {
		t.Errorf("under-filled Close: err = %v, want kept reconciliation error", err)
	}

	// Over-filling: a write past the declaration must refuse immediately.
	buf.Reset()
	st, err = NewStreamTracer(&buf, Header{Source: "recon", Kept: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(events[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(events[1]); err == nil {
		t.Error("write past the declared kept count must error")
	}

	// Seq regressions are a writer-side error, mirroring ReadTrace.
	buf.Reset()
	st, err = NewStreamTracer(&buf, Header{Source: "recon", Kept: 2}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(events[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(events[0]); err == nil || !strings.Contains(err.Error(), "seq") {
		t.Errorf("seq regression: err = %v, want seq error", err)
	}

	// Bad headers are rejected before any byte is written.
	if _, err := NewStreamTracer(&buf, Header{Schema: "bogus/v9"}, 1, nil); err == nil {
		t.Error("foreign schema must be rejected")
	}
	if _, err := NewStreamTracer(&buf, Header{Kept: -1}, 1, nil); err == nil {
		t.Error("negative kept must be rejected")
	}
}

func TestSecondsHistogram(t *testing.T) {
	h := NewSecondsHistogram()
	// An edge value lands in its own bucket; 100 s overflows past 60.
	for _, v := range []float64{0.0005, 0.002, 0.0025, 0.5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || len(s.Edges) != 15 || s.Edges[0] != 0.001 || s.Edges[14] != 60 {
		t.Fatalf("count = %d, edges = %v", s.Count, s.Edges)
	}
	want := []uint64{1, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("buckets = %v, want %v", s.Counts, want)
	}

	var b strings.Builder
	WriteSecondsFamilyHeader(&b, "x_seconds", "Test family.")
	WriteSecondsSamples(&b, "x_seconds", `route="GET /x",code="200"`, s)
	got := b.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram\n",
		`x_seconds_bucket{route="GET /x",code="200",le="0.001"} 1` + "\n",
		`x_seconds_bucket{route="GET /x",code="200",le="0.0025"} 3` + "\n",
		`x_seconds_bucket{route="GET /x",code="200",le="+Inf"} 5` + "\n",
		`x_seconds_count{route="GET /x",code="200"} 5` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendering missing %q:\n%s", want, got)
		}
	}
	// Unlabeled rendering must not emit empty label braces.
	b.Reset()
	WriteSecondsSamples(&b, "y_seconds", "", s)
	if strings.Contains(b.String(), "{,") || strings.Contains(b.String(), "y_seconds_sum{") {
		t.Errorf("unlabeled rendering malformed:\n%s", b.String())
	}
}
