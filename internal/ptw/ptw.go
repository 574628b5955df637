// Package ptw implements the hardware page-table walker (PTW) with its page
// walk cache (PWC, "PTECache" in Table 1). On every PTE fetch that misses
// the PWC, the walker first validates the PT page's physical address through
// the attached physical-memory checker — this is precisely the "extra
// dimension" the paper measures: with a permission table, each of the three
// Sv39 PT-page references costs two additional pmpte references (Fig. 2-c),
// while HPMP's segment mode validates them for free (Fig. 4). A walker in
// Sv39x4 mode performs the nested (G-stage) walks of a 3-D walk (Fig. 8).
package ptw

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/assoc"
	"hpmp/internal/hpmp"
	"hpmp/internal/memport"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/pt"
	"hpmp/internal/stats"
)

// Result reports one hardware walk.
type Result struct {
	Translation pt.Translation
	PageFault   bool // invalid/missing mapping (kernel must handle)
	AccessFault bool // a PT-page reference failed the physical checker

	Latency     uint64 // total core cycles: PTE fetches + PT-page checks
	PTRefs      int    // PTE fetches that reached the memory system
	PTCheckRefs int    // permission-table references spent validating PT pages
}

// Walker is the PTW attached to one hart.
type Walker struct {
	Mode addr.Mode
	Port memport.Port
	// Checker validates PT-page addresses; nil means physical memory
	// isolation is disabled (Fig. 2-a).
	Checker *hpmp.Checker
	// PWC is the page walk cache: PTE words keyed by PTE physical address,
	// true LRU. Table 1's "PTECache" is 8 entries; Fig. 17 grows it to 32.
	// Nil when the walker has none.
	PWC *assoc.Cache

	// Trace, when set, receives one obs.KindPTEFetch event per PTE lookup
	// (walk level, PWC outcome, fetch cost). Nil costs one pointer compare
	// per level — the PWC-hit zero-alloc pin covers it.
	Trace *obs.Tracer

	// Hot-path counter handles, resolved once in New.
	hPWCHit, hPTEFetch, hWalkOK, hPageFault, hAccessFault *uint64

	// Hist is the native-walk latency histogram ("ptw.walk_latency" in
	// metrics snapshots): one observation per completed walk, faulted or
	// not. Embedded by value and written in place, so recording stays
	// allocation-free (TestPTWWalkPWCHitZeroAllocs pins it).
	Hist stats.Histogram

	Counters stats.Counters
}

// New builds a walker for the given translation mode with an n-entry PWC
// (n=0 disables the PWC).
func New(mode addr.Mode, port memport.Port, checker *hpmp.Checker, pwcEntries int) *Walker {
	w := &Walker{Mode: mode, Port: port, Checker: checker}
	if pwcEntries > 0 {
		w.PWC = assoc.NewCache(pwcEntries)
	}
	w.hPWCHit = w.Counters.Handle("ptw.pwc_hit")
	w.hPTEFetch = w.Counters.Handle("ptw.pte_fetch")
	w.hWalkOK = w.Counters.Handle("ptw.walk_ok")
	w.hPageFault = w.Counters.Handle("ptw.page_fault")
	w.hAccessFault = w.Counters.Handle("ptw.access_fault")
	return w
}

// traceFetch emits one KindPTEFetch event. It lives outside the walk loop so
// the event construction never competes for registers with the loop body;
// the prev* values are the counters captured before the fetch, so
// the event carries per-fetch deltas.
func (w *Walker) traceFetch(va addr.VA, pteAddr addr.PA, level int, hit bool, res *Result, prevLat uint64, prevPT, prevChk int) {
	ev := obs.Event{
		Kind:    obs.KindPTEFetch,
		Access:  perm.Read,
		VA:      va,
		PA:      pteAddr,
		Level:   int8(level),
		Hit:     hit,
		Refs:    uint16(res.PTRefs - prevPT + res.PTCheckRefs - prevChk),
		ChkRefs: uint16(res.PTCheckRefs - prevChk),
		Cycles:  res.Latency - prevLat,
	}
	if res.AccessFault {
		ev.Fault = obs.FaultAccess
	}
	w.Trace.Emit(ev)
}

// leafTranslation maps a leaf PTE at the given level onto the translated
// address; superpage leaves align the frame to the superpage boundary.
func leafTranslation(e pt.PTE, va addr.VA, level int) pt.Translation {
	if level != 0 {
		span := uint64(1) << (addr.PageShift + 9*level)
		frameBase := uint64(e.Target()) &^ (span - 1)
		off := uint64(va) & (span - 1) &^ uint64(addr.PageMask)
		return pt.Translation{
			PA:   addr.PA(frameBase+off) + addr.PA(va.Offset()),
			Perm: e.Perm(),
			User: e.User(),
		}
	}
	return pt.Translation{
		PA:   e.Target() + addr.PA(va.Offset()),
		Perm: e.Perm(),
		User: e.User(),
	}
}

// WalkInto translates va starting from the page table rooted at root,
// issuing memory references at core-cycle now, and writes the outcome to
// *out, which it resets first. The MMU's access path builds the walk
// sub-result in place inside mmu.Result this way: returning the 64-byte
// struct by value would cost a duffcopy per TLB miss.
func (w *Walker) WalkInto(root addr.PA, va addr.VA, now uint64, out *Result) error {
	*out = Result{}
	err := w.walk(root, va, now, out)
	if err == nil {
		w.Hist.Observe(out.Latency)
	}
	return err
}

// WalkBookkeeping is WalkInto minus the walk-latency histogram observation.
// Software-initiated translations (mmu.Translate: monitor and kernel
// bookkeeping) run at now=0 outside any timed instruction stream; recording
// them would pollute ptw.walk_latency with time-zero samples that no
// hardware walk produced. Walk counters (ptw.walk_ok, ptw.pte_fetch, ...)
// still advance — the references are real — only the latency distribution
// is reserved for hardware-initiated walks.
func (w *Walker) WalkBookkeeping(root addr.PA, va addr.VA, now uint64, out *Result) error {
	*out = Result{}
	return w.walk(root, va, now, out)
}

// walk is the walk loop: one PTE fetch per level, with a KindPTEFetch event
// emitted per fetch when a tracer is attached. Tracing only observes — the
// fetch, its counters and its latency are the same either way.
func (w *Walker) walk(root addr.PA, va addr.VA, now uint64, res *Result) error {
	if !w.Mode.Canonical(va) {
		res.PageFault = true
		*w.hPageFault++
		return nil
	}
	base := root
	for level := w.Mode.Levels() - 1; level >= 0; level-- {
		pteAddr := base + addr.PA(w.Mode.VPN(va, level)*8)
		prevLat, prevPT, prevChk := res.Latency, res.PTRefs, res.PTCheckRefs
		raw, hit, err := w.FetchPTE(pteAddr, now, res)
		if err != nil {
			return err
		}
		if w.Trace != nil {
			w.traceFetch(va, pteAddr, level, hit, res, prevLat, prevPT, prevChk)
		}
		if !hit && res.AccessFault {
			*w.hAccessFault++
			return nil
		}
		e := pt.PTE(raw)
		if !e.Valid() {
			res.PageFault = true
			*w.hPageFault++
			return nil
		}
		if e.Leaf() {
			res.Translation = leafTranslation(e, va, level)
			*w.hWalkOK++
			return nil
		}
		if level == 0 {
			// A pointer entry where only leaves are legal: malformed table.
			res.PageFault = true
			*w.hPageFault++
			return nil
		}
		base = e.Target()
	}
	return fmt.Errorf("ptw: walk fell through for %v", va)
}

// FetchPTE returns the PTE word at pteAddr. PWC hits cost nothing and skip
// the physical check (the entry was validated at fill time). On a PWC miss
// the PT-page address is validated through the checker before the fetch;
// res.AccessFault is set when the check denies. Page tables are kernel data
// structures, so the check is at S. Besides the walk loop, the
// hypervisor's guest-dimension loop fetches each guest PTE through it.
func (w *Walker) FetchPTE(pteAddr addr.PA, now uint64, res *Result) (raw uint64, pwcHit bool, err error) {
	if w.PWC != nil {
		if v, ok := w.PWC.Lookup(uint64(pteAddr)); ok {
			*w.hPWCHit++
			return v, true, nil
		}
	}
	if w.Checker != nil {
		chk, err := w.Checker.Check(pteAddr, 8, perm.Read, perm.S, now+res.Latency)
		if err != nil {
			return 0, false, err
		}
		res.Latency += chk.Latency
		res.PTCheckRefs += chk.MemRefs
		if !chk.Allowed {
			res.AccessFault = true
			return 0, false, nil
		}
	}
	v, lat, err := w.Port.Read64(pteAddr, now+res.Latency)
	if err != nil {
		return 0, false, err
	}
	res.Latency += lat
	res.PTRefs++
	*w.hPTEFetch++
	// Only valid entries are cached — a PWC never caches faults, or a
	// later mapping of the page would be invisible until a flush.
	if w.PWC != nil && pt.PTE(v).Valid() {
		w.PWC.Insert(uint64(pteAddr), v)
	}
	return v, false, nil
}

// FlushPWC empties the page walk cache (sfence.vma side effect).
func (w *Walker) FlushPWC() {
	if w.PWC != nil {
		w.PWC.FlushAll()
	}
}
