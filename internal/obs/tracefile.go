package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// TraceSchema names the trace-file format version. The first line of a
// trace file is a Header with this schema string; every following line is
// one Event. Both cmd/hpmpsim (writer) and cmd/hpmptrace (writer + reader)
// go through WriteTrace/ReadTrace, so the two tools cannot drift.
const TraceSchema = "hpmp-trace/v1"

// Header is the first line of a trace file.
type Header struct {
	Schema string `json:"schema"`
	// Experiment or workload the trace came from.
	Source string `json:"source"`
	// SampleEvery is the sampling stride (1 = every event).
	SampleEvery int `json:"sample_every"`
	// Ring is the tracer's retention capacity.
	Ring int `json:"ring"`
	// Seen/Sampled/Kept mirror the tracer's counters, so a reader can tell
	// how much of the run the retained window covers.
	Seen    uint64 `json:"seen"`
	Sampled uint64 `json:"sampled"`
	Kept    int    `json:"kept"`
}

// eventJSON is the wire form of Event: enums as their String names and
// addresses as hex strings, so traces are greppable as text.
type eventJSON struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Access  string `json:"access"`
	TLB     string `json:"tlb,omitempty"`
	Level   int8   `json:"level"`
	Hit     bool   `json:"hit"`
	Fault   string `json:"fault,omitempty"`
	VA      string `json:"va"`
	PA      string `json:"pa"`
	Refs    uint16 `json:"refs"`
	ChkRefs uint16 `json:"chk_refs"`
	Cycles  uint64 `json:"cycles"`
}

func toJSON(ev Event) eventJSON {
	return eventJSON{
		Seq:     ev.Seq,
		Kind:    ev.Kind.String(),
		Access:  ev.Access.String(),
		TLB:     ev.TLB.String(),
		Level:   ev.Level,
		Hit:     ev.Hit,
		Fault:   ev.Fault.String(),
		VA:      fmt.Sprintf("%#x", uint64(ev.VA)),
		PA:      fmt.Sprintf("%#x", uint64(ev.PA)),
		Refs:    ev.Refs,
		ChkRefs: ev.ChkRefs,
		Cycles:  ev.Cycles,
	}
}

func fromJSON(ej eventJSON) (Event, error) {
	kind, ok := KindFromString(ej.Kind)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event kind %q", ej.Kind)
	}
	tlb, ok := TLBPathFromString(ej.TLB)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown tlb path %q", ej.TLB)
	}
	fault, ok := FaultFromString(ej.Fault)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown fault kind %q", ej.Fault)
	}
	access, ok := accessFromString(ej.Access)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown access kind %q", ej.Access)
	}
	va, err := strconv.ParseUint(ej.VA, 0, 64)
	if err != nil {
		return Event{}, fmt.Errorf("obs: bad va %q: %w", ej.VA, err)
	}
	pa, err := strconv.ParseUint(ej.PA, 0, 64)
	if err != nil {
		return Event{}, fmt.Errorf("obs: bad pa %q: %w", ej.PA, err)
	}
	return Event{
		Seq:     ej.Seq,
		Kind:    kind,
		Access:  access,
		TLB:     tlb,
		Level:   ej.Level,
		Hit:     ej.Hit,
		Fault:   fault,
		VA:      addr.VA(va),
		PA:      addr.PA(pa),
		Refs:    ej.Refs,
		ChkRefs: ej.ChkRefs,
		Cycles:  ej.Cycles,
	}, nil
}

// accessFromString inverts perm.Access.String.
func accessFromString(s string) (perm.Access, bool) {
	switch s {
	case perm.Read.String():
		return perm.Read, true
	case perm.Write.String():
		return perm.Write, true
	case perm.Fetch.String():
		return perm.Fetch, true
	}
	return 0, false
}

// header builds the trace-file header for this tracer's current state.
func (t *Tracer) header(source string) Header {
	return Header{
		Schema:      TraceSchema,
		Source:      source,
		SampleEvery: t.SampleEvery(),
		Ring:        len(t.ring),
		Seen:        t.Seen(),
		Sampled:     t.Sampled(),
		Kept:        t.Kept(),
	}
}

// WriteTrace serializes a tracer's retained events as JSON lines: the
// header first, then one event per line, oldest first. It is the buffered
// spelling of WriteTraceStream — both produce byte-identical output (the
// equivalence test pins it), WriteTrace just never issues explicit
// flushes beyond bufio's own.
func WriteTrace(w io.Writer, source string, t *Tracer) error {
	return WriteTraceStream(w, source, t, 0, nil)
}

// DefaultStreamFlush is the event stride between explicit flushes when a
// StreamTracer caller does not choose one. Small enough that a tailing
// consumer sees progress, large enough that flush syscalls stay off the
// per-event path.
const DefaultStreamFlush = 256

// StreamTracer writes an hpmp-trace/v1 stream incrementally: the header
// commits first (its kept count must therefore be final), events append
// one line at a time, and Close reconciles the written count against the
// header's declaration — so a stream that Close accepts is exactly a
// stream ReadTrace accepts, and an abandoned stream is rejected by
// ReadTrace as truncated rather than silently under-filled.
//
// Every flushEvery events the internal buffer is flushed to w and onFlush
// (when non-nil) is invoked — the HTTP trace download passes
// http.Flusher.Flush so chunks leave the server as they are produced.
type StreamTracer struct {
	bw       *bufio.Writer
	enc      *json.Encoder
	declared int
	written  int
	every    int
	onFlush  func()
	lastSeq  uint64
}

// NewStreamTracer commits h (normalizing an empty schema) to w and
// returns the incremental writer. flushEvery ≤ 0 selects
// DefaultStreamFlush.
func NewStreamTracer(w io.Writer, h Header, flushEvery int, onFlush func()) (*StreamTracer, error) {
	if h.Schema == "" {
		h.Schema = TraceSchema
	}
	if h.Schema != TraceSchema {
		return nil, fmt.Errorf("obs: stream schema %q, want %q", h.Schema, TraceSchema)
	}
	if h.Kept < 0 {
		return nil, fmt.Errorf("obs: stream header declares negative kept count %d", h.Kept)
	}
	if flushEvery <= 0 {
		flushEvery = DefaultStreamFlush
	}
	st := &StreamTracer{
		bw:       bufio.NewWriter(w),
		declared: h.Kept,
		every:    flushEvery,
		onFlush:  onFlush,
	}
	st.enc = json.NewEncoder(st.bw)
	if err := st.enc.Encode(h); err != nil {
		return nil, err
	}
	// Commit the header immediately: a tailing reader can parse it and
	// size its expectations before the first event arrives.
	if err := st.flush(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *StreamTracer) flush() error {
	if err := st.bw.Flush(); err != nil {
		return err
	}
	if st.onFlush != nil {
		st.onFlush()
	}
	return nil
}

// Write appends one event line. It enforces the writer-side mirror of
// ReadTrace's invariants: no more events than the header declared, and
// strictly increasing sequence numbers.
func (st *StreamTracer) Write(ev Event) error {
	if st.written >= st.declared {
		return fmt.Errorf("obs: stream already carries the %d events its header declared", st.declared)
	}
	if st.written > 0 && ev.Seq <= st.lastSeq {
		return fmt.Errorf("obs: stream event seq %d not after %d", ev.Seq, st.lastSeq)
	}
	st.lastSeq = ev.Seq
	if err := st.enc.Encode(toJSON(ev)); err != nil {
		return err
	}
	st.written++
	if st.written%st.every == 0 {
		return st.flush()
	}
	return nil
}

// Close flushes the tail and reconciles the event count against the
// header. A mismatch is an error here for the same reason it is in
// ReadTrace: a header whose kept count the body contradicts lies to every
// downstream consumer.
func (st *StreamTracer) Close() error {
	if st.written != st.declared {
		return fmt.Errorf("obs: stream wrote %d events but its header declared %d — readers would reject it as truncated",
			st.written, st.declared)
	}
	return st.flush()
}

// WriteTraceStream streams a finished tracer's retained window through a
// StreamTracer: header first (the tracer is done, so kept is exact), then
// each event encoded straight from the ring — no []Event materialization,
// so peak buffering is one bufio page regardless of ring size. Every
// flushEvery events (≤ 0 selects DefaultStreamFlush) the buffer is
// flushed and onFlush fires; pass http.Flusher.Flush there to chunk an
// HTTP download.
func WriteTraceStream(w io.Writer, source string, t *Tracer, flushEvery int, onFlush func()) error {
	st, err := NewStreamTracer(w, t.header(source), flushEvery, onFlush)
	if err != nil {
		return err
	}
	var werr error
	t.Each(func(ev Event) bool {
		werr = st.Write(ev)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return st.Close()
}

// ReadTrace parses a trace file written by WriteTrace. It is hardened
// against truncated or corrupt input: every parse failure names the
// offending line, an over-long line surfaces as an error with its line
// number instead of a bare bufio.ErrTooLong, events must carry strictly
// increasing sequence numbers (the writer emits the retained window oldest
// first), and a stream that ends before header.kept events — a partial
// download, a truncated copy — is an explicit truncation error rather than
// a silent partial success. Event lines in the writer's own form decode
// without reflection (decodeEventLine); every other JSON spelling goes
// through encoding/json.
func ReadTrace(r io.Reader) (Header, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Header{}, nil, fmt.Errorf("obs: trace line 1: %w", err)
		}
		return Header{}, nil, fmt.Errorf("obs: empty trace file")
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return Header{}, nil, fmt.Errorf("obs: bad trace header: %w", err)
	}
	if h.Schema != TraceSchema {
		return Header{}, nil, fmt.Errorf("obs: trace schema %q, want %q", h.Schema, TraceSchema)
	}
	if h.Kept < 0 {
		return Header{}, nil, fmt.Errorf("obs: bad trace header: negative kept count %d", h.Kept)
	}
	// kept is outside input: past DefaultRing the slice grows by append,
	// so a lying header cannot make the reader allocate for it.
	events := make([]Event, 0, min(h.Kept, DefaultRing))
	line := 1
	lastSeq := uint64(0)
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(bytes.TrimSpace(b)) == 0 {
			continue
		}
		ev, ok := decodeEventLine(b)
		if !ok {
			var ej eventJSON
			if err := json.Unmarshal(b, &ej); err != nil {
				return Header{}, nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			var err error
			if ev, err = fromJSON(ej); err != nil {
				return Header{}, nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		}
		if len(events) > 0 && ev.Seq <= lastSeq {
			return Header{}, nil, fmt.Errorf("obs: trace line %d: event seq %d not after %d (corrupt or reordered stream)",
				line, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return Header{}, nil, fmt.Errorf("obs: trace line %d: %w", line+1, err)
	}
	if len(events) != h.Kept {
		return Header{}, nil, fmt.Errorf("obs: truncated trace: header says %d events, stream has %d",
			h.Kept, len(events))
	}
	return h, events, nil
}

// FormatEvent renders one event as a human-readable line — the pretty form
// cmd/hpmptrace prints for a decoded trace.
func FormatEvent(ev Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8d  %-10s", ev.Seq, ev.Kind)
	switch ev.Kind {
	case KindAccess:
		fmt.Fprintf(&b, " %-5s va=%#011x pa=%#011x tlb=%-4s", ev.Access, uint64(ev.VA), uint64(ev.PA), ev.TLB)
		if ev.Fault != FaultNone {
			fmt.Fprintf(&b, " FAULT=%s", ev.Fault)
		}
	case KindPTEFetch:
		hit := "miss"
		if ev.Hit {
			hit = "hit"
		}
		fmt.Fprintf(&b, " level=%d pte=%#011x pwc=%-4s", ev.Level, uint64(ev.PA), hit)
	case KindPMPTFetch:
		hit := "miss"
		if ev.Hit {
			hit = "hit"
		}
		fmt.Fprintf(&b, " pmpte=%#011x cache=%-4s", uint64(ev.PA), hit)
	case KindCheck:
		verdict := "deny"
		if ev.Hit {
			verdict = "allow"
		}
		fmt.Fprintf(&b, " %-5s pa=%#011x entry=%d %s", ev.Access, uint64(ev.PA), ev.Level, verdict)
	}
	fmt.Fprintf(&b, " refs=%d chk=%d cycles=%d", ev.Refs, ev.ChkRefs, ev.Cycles)
	return b.String()
}
