package obs

import "hpmp/internal/perm"

// Tracer samples translation-path events into a bounded ring and keeps a
// whole-run Tally of the access events. The zero value is not usable —
// call NewTracer. All storage is preallocated, so Emit never allocates;
// the hooks in mmu/ptw/pmpt/hpmp check their Trace pointer for nil before
// constructing an Event, so a detached tracer costs nothing at all.
//
// A Tracer is single-owner (see the package comment): Emit is called only
// from the simulation goroutine, and the read side (Seen, Sampled, Events,
// Tally, WriteTrace) runs only after that goroutine has finished.
type Tracer struct {
	every   uint64
	seen    uint64
	sampled uint64
	ring    []Event
	next    int
	tally   Tally
}

// Tally is a tracer's whole-run account of the KindAccess events offered
// to it. Emit takes it before sampling, so it covers every access even
// when the ring kept only the last few. It is fixed-size: keeping it never
// allocates.
type Tally struct {
	Accesses uint64
	ByAccess [perm.Fetch + 1]uint64 // indexed by perm.Access
	ByTLB    [numTLBPaths]uint64    // indexed by TLBPath
	Faults   uint64                 // accesses with Fault != FaultNone
	// Refs and ChkRefs sum the events' Refs and ChkRefs fields.
	Refs, ChkRefs uint64
}

func (t *Tally) add(ev *Event) {
	t.Accesses++
	t.ByAccess[ev.Access]++
	t.ByTLB[ev.TLB]++
	if ev.Fault != FaultNone {
		t.Faults++
	}
	t.Refs += uint64(ev.Refs)
	t.ChkRefs += uint64(ev.ChkRefs)
}

// DefaultRing is the ring capacity the CLI tools default to.
const DefaultRing = 4096

// MaxRing is the largest ring capacity a daemon job may request: sixteen
// times the default. NewTracer allocates the whole ring up front.
const MaxRing = 16 * DefaultRing

// NewTracer builds a tracer that keeps the last `keep` of every `every`-th
// event (every ≤ 1 records all events; keep ≤ 0 falls back to DefaultRing).
func NewTracer(keep, every int) *Tracer {
	if keep <= 0 {
		keep = DefaultRing
	}
	if every < 1 {
		every = 1
	}
	return &Tracer{every: uint64(every), ring: make([]Event, keep)}
}

// SampleEvery returns the sampling stride.
func (t *Tracer) SampleEvery() int { return int(t.every) }

// Emit offers one event to the tracer. The event's Seq is assigned here
// from the tracer's ordinal counter; sampling keeps ordinal 0, every,
// 2*every, … so traces are deterministic for a given workload. Access
// events enter the Tally whether or not they are sampled.
func (t *Tracer) Emit(ev Event) {
	ord := t.seen
	t.seen++
	if ev.Kind == KindAccess {
		t.tally.add(&ev)
	}
	if t.every > 1 && ord%t.every != 0 {
		return
	}
	ev.Seq = ord
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.sampled++
}

// Seen returns how many events were offered (sampled or not).
func (t *Tracer) Seen() uint64 { return t.seen }

// Tally returns the whole-run account of the access events offered.
func (t *Tracer) Tally() Tally { return t.tally }

// Sampled returns how many events passed sampling (including ones the ring
// has since evicted).
func (t *Tracer) Sampled() uint64 { return t.sampled }

// Kept returns how many events the ring currently holds.
func (t *Tracer) Kept() int {
	if t.sampled < uint64(len(t.ring)) {
		return int(t.sampled)
	}
	return len(t.ring)
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, t.Kept())
	if t.sampled < uint64(len(t.ring)) {
		return append(out, t.ring[:t.next]...)
	}
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Each calls fn for every retained event, oldest first, stopping early if
// fn returns false. Unlike Events it materializes nothing: the streaming
// trace writer uses it to keep peak memory independent of the ring size.
func (t *Tracer) Each(fn func(Event) bool) {
	if t.sampled < uint64(len(t.ring)) {
		for i := 0; i < t.next; i++ {
			if !fn(t.ring[i]) {
				return
			}
		}
		return
	}
	for i := t.next; i < len(t.ring); i++ {
		if !fn(t.ring[i]) {
			return
		}
	}
	for i := 0; i < t.next; i++ {
		if !fn(t.ring[i]) {
			return
		}
	}
}
