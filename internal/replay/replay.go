// Package replay re-executes recorded hpmp-trace/v1 event streams against a
// freshly assembled machine, turning every captured workload into a
// portable, diffable scenario.
//
// The engine consumes the KindAccess events of a trace (the other kinds —
// PTE fetches, pmpte fetches, permission checks — are *consequences* of an
// access on a given machine, so replay regenerates them instead of
// re-executing them). From the access stream it derives the minimal
// page-table state needed to make the recorded sequence executable, and it
// reads that state back from the page table it installs (pt.Table.Lookup),
// keeping no second copy:
//
//   - a FaultNone event with a physical address is a proof that va→pa was
//     mapped when the event fired, so the engine lazily installs (or, when
//     its table maps the page elsewhere, reinstalls + sfence.vma's) that
//     mapping;
//   - a FaultPage event is a proof the page was unmapped, so the engine
//     unmaps it first if its table still maps it;
//   - FaultProt and FaultAccess events depend on privilege and isolation
//     state the trace does not record, so they are skipped and counted
//     (Stats.SkippedProt / SkippedAccessFault) — DESIGN.md §8 documents the
//     non-replayable set.
//
// Accesses are issued block-at-a-time through mmu.AccessBatch (the PR 6
// batched entry point) into preallocated request/result buffers, so the
// steady-state replay loop performs zero heap allocations
// (TestReplayStepZeroAllocs pins it). Replayed data references are
// timing-only — the cache hierarchy models their latency but no memory
// content is written — so a recorded data PA landing inside the engine's
// own page-table pool cannot corrupt replay state.
//
// Equivalence guarantees (enforced by internal/integration's
// replay-equivalence gate): replaying the same trace twice on the same
// simcfg.Machine produces byte-identical counter snapshots and Prometheus
// text, and replaying the trace a replay itself captured (TraceEvery=1)
// reproduces the first replay's counters exactly — the fixpoint property.
// A different machine (isolation mode, PMPT depth, cache sizes) produces a
// comparable hpmp-metrics/v1 snapshot for `hpmpsim diff`.
package replay

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/mmu"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
	"hpmp/internal/pt"
	"hpmp/internal/simcfg"
)

// poolSize is the size of each of the two top-of-memory pools (page tables,
// permission tables). simcfg.PoolAlign keeps every valid MemSize a
// multiple of the two pools combined.
const poolSize = simcfg.PoolAlign / 2

// BlockMax is the replay batch size: the events of one mmu.AccessBatch
// submission.
const BlockMax = 256

// Stats counts what the engine did with a trace. All fields are replay
// bookkeeping; the simulated machine's own counters live in its stats sets
// and are snapshotted by Metrics.
type Stats struct {
	// Events is every event offered to Step; Accesses the KindAccess subset
	// actually re-executed.
	Events   uint64
	Accesses uint64
	// Blocks is the number of AccessBatch submissions.
	Blocks uint64
	// Maps / Remaps / Unmaps count derived page-table operations. A Remap
	// (the trace shows the page moved) and an Unmap each imply one
	// sfence.vma (mmu.FlushVA).
	Maps   uint64
	Remaps uint64
	Unmaps uint64
	// Faults is the number of replayed accesses that page-faulted (as the
	// trace said they would).
	Faults uint64
	// Skipped* count events replay cannot re-execute; DESIGN.md §8 explains
	// each class.
	SkippedKind        uint64 // non-access events (regenerated, not replayed)
	SkippedProt        uint64 // PTE-permission faults: privilege not recorded
	SkippedAccessFault uint64 // isolation faults: isolation state not recorded
	SkippedZeroPA      uint64 // successful access with no PA recorded
	SkippedOutOfRange  uint64 // recorded PA beyond the replay machine's DRAM
	SkippedUnmappable  uint64 // va the replay page table cannot map (e.g. Sv48 trace on Sv39)
	// Divergences counts replayed accesses whose outcome (physical address
	// or fault class) did not match the recorded event; First holds the
	// first mismatch, rendered for humans.
	Divergences uint64
	First       string
}

// Skipped returns the total count of skipped events.
func (s *Stats) Skipped() uint64 {
	return s.SkippedKind + s.SkippedProt + s.SkippedAccessFault +
		s.SkippedZeroPA + s.SkippedOutOfRange + s.SkippedUnmappable
}

// Engine replays one trace onto one machine. It is single-goroutine, like
// the simulator it drives.
type Engine struct {
	cfg  simcfg.Machine
	mach *cpu.Machine
	// tbl is the installed page table, and the engine's only record of
	// which pages it has mapped where.
	tbl *pt.Table

	// Pending batch: reqs/out are the preallocated AccessBatch buffers,
	// expPA/expFault the recorded outcome each slot must reproduce.
	reqs     [BlockMax]mmu.AccessReq
	out      [BlockMax]mmu.Result
	expPA    [BlockMax]addr.PA
	expFault [BlockMax]obs.Fault
	n        int
	// pendingFault marks a queued expected-page-fault access: a fresh Map
	// must drain the queue first, or the queued access would walk (or even
	// succeed) through page-table state installed after it. (Remap/Unmap
	// drain unconditionally — their sfence.vma empties the PWC, which would
	// perturb every queued walk's timing if reordered.)
	pendingFault bool

	now uint64
	// flushErr stashes an infrastructure error raised at a batch boundary
	// inside enqueue (which has no error return on the hot path); the next
	// Flush re-raises it.
	flushErr error

	Stats Stats
}

// New assembles the replay machine for cfg: platform, isolation-mode
// programming (segments / permission tables / both), and an empty Sv39 page
// table whose pages come from a pool at the top of DRAM. Recorded data PAs
// may collide with the pools; that is harmless because replayed data
// references are timing-only.
func New(cfg simcfg.Machine) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Machine assembly — platform choice, geometry overrides, checker
	// presence, PMPTW-cache enablement — is simcfg's job; the engine only
	// programs the isolation state on top.
	mach := cfg.Assemble()

	ptRegion := addr.Range{Base: addr.PA(cfg.MemSize - 2*poolSize), Size: poolSize}
	pmptRegion := addr.Range{Base: addr.PA(cfg.MemSize - poolSize), Size: poolSize}

	e := &Engine{
		cfg:  cfg,
		mach: mach,
	}

	ptAlloc := phys.NewFrameAllocator(ptRegion, false)
	tbl, err := pt.New(mach.Mem, ptAlloc, addr.Sv39)
	if err != nil {
		return nil, fmt.Errorf("replay: building page table: %w", err)
	}
	e.tbl = tbl
	// SetRoot's flush contract is trivially met here: the machine was
	// assembled above and has never translated, so every TLB level and the
	// PWC are empty — there is no stale state a flush could clear.
	mach.MMU.SetRoot(tbl.Root())

	if err := e.programIsolation(ptRegion, pmptRegion); err != nil {
		return nil, err
	}
	return e, nil
}

// programIsolation sets up the checker for the configured mode.
func (e *Engine) programIsolation(ptRegion, pmptRegion addr.Range) error {
	switch e.cfg.Mode {
	case simcfg.ModeNone:
		return nil
	case simcfg.ModePMP:
		// One RWX segment over DRAM — checks are free (Fig. 2-b).
		return e.mach.Checker.SetSegment(0, addr.Range{Base: 0, Size: addr.NAPOTCeil(e.cfg.MemSize)}, perm.RWX, false)
	case simcfg.ModePMPT, simcfg.ModeHPMP:
		entry := 0
		if e.cfg.Mode == simcfg.ModeHPMP {
			// HPMP's trick: the page-table pool rides a segment, so PT
			// fetches skip the permission-table walk (Fig. 4). RWX rather
			// than RW so a recorded fetch PA that happens to land in the
			// pool region still replays cleanly.
			if err := e.mach.Checker.SetSegment(entry, ptRegion, perm.RWX, false); err != nil {
				return err
			}
			entry++
		}
		// One table per Mode reach of DRAM, each over the NAPOT ceiling of
		// the DRAM it holds (the entry's region must be NAPOT, as the
		// PMP-mode segment's is) with only DRAM granted. The fill is
		// page-granular: huge entries would collapse every check to one
		// fetch and make the depth sweep meaningless.
		mode := pmpt.ModeFor(max(e.cfg.TableDepth, 2))
		alloc := phys.NewFrameAllocator(pmptRegion, false)
		for base := uint64(0); base < e.cfg.MemSize; base += mode.Reach() {
			dram := addr.Range{Base: addr.PA(base), Size: min(mode.Reach(), e.cfg.MemSize-base)}
			region := addr.Range{Base: dram.Base, Size: addr.NAPOTCeil(dram.Size)}
			tbl, err := pmpt.NewTableMode(e.mach.Mem, alloc, region, mode)
			if err != nil {
				return fmt.Errorf("replay: building %d-level permission table at %v: %w", mode.Levels(), dram.Base, err)
			}
			if err := tbl.SetRangePermPaged(dram, perm.RWX); err != nil {
				return err
			}
			if err := e.mach.Checker.SetTableMode(entry, region, tbl.RootBase(), mode); err != nil {
				return err
			}
			entry++
		}
		return nil
	}
	return fmt.Errorf("replay: unhandled mode %q", e.cfg.Mode)
}

// Config returns the engine's configuration.
func (e *Engine) Config() simcfg.Machine { return e.cfg }

// Machine exposes the replay machine (metrics collection, tracer
// attachment).
func (e *Engine) Machine() *cpu.Machine { return e.mach }

// Now returns the replay clock: the core cycle after the last completed
// batch.
func (e *Engine) Now() uint64 { return e.now }

// SetTracer attaches an observability tracer to the replay machine's
// translation-path hooks, so a replay can itself be captured — the
// round-trip the fixpoint gate and `hpmptrace -replay-check` exercise.
func (e *Engine) SetTracer(t *obs.Tracer) { e.mach.SetTracer(t) }

// Step offers one recorded event to the engine. Non-access events and
// non-replayable faults are counted and skipped; everything else is queued
// and executed in recorded order, BlockMax accesses per AccessBatch. The
// steady-state path (already-mapped page, no batch boundary) allocates
// nothing.
func (e *Engine) Step(ev obs.Event) error {
	e.Stats.Events++
	if ev.Kind != obs.KindAccess {
		e.Stats.SkippedKind++
		return nil
	}
	switch ev.Fault {
	case obs.FaultProt:
		e.Stats.SkippedProt++
		return nil
	case obs.FaultAccess:
		e.Stats.SkippedAccessFault++
		return nil
	case obs.FaultPage:
		if _, mapped := e.tbl.Lookup(ev.VA); mapped {
			// The trace says the page was gone by this point: unmap and
			// sfence.vma, draining the queue first so earlier accesses are
			// not timed against the flushed TLB/PWC.
			if err := e.Flush(); err != nil {
				return err
			}
			if _, err := e.tbl.Unmap(ev.VA); err != nil {
				return fmt.Errorf("replay: unmap %v: %w", ev.VA, err)
			}
			e.mach.MMU.FlushVA(ev.VA)
			e.Stats.Unmaps++
		}
		e.enqueue(ev, true)
		return nil
	}
	// FaultNone: a successful access with its translation recorded.
	if ev.PA == 0 {
		e.Stats.SkippedZeroPA++
		return nil
	}
	if uint64(ev.PA) >= e.cfg.MemSize {
		e.Stats.SkippedOutOfRange++
		return nil
	}
	pte, mapped := e.tbl.Lookup(ev.VA)
	switch {
	case !mapped:
		// First sight of this page. A fresh Map flushes nothing, so queued
		// successful accesses may still run after it; a queued expected
		// page fault may not — its walk would find the new intermediate
		// tables — so drain when one is queued.
		if e.pendingFault {
			if err := e.Flush(); err != nil {
				return err
			}
		}
		if err := e.tbl.Map(ev.VA, ev.PA.PageBase(), perm.RWX, true); err != nil {
			e.Stats.SkippedUnmappable++
			return nil
		}
		e.Stats.Maps++
	case pte.Target() != ev.PA.PageBase():
		// The trace shows the kernel moved the page: reinstall + sfence.vma
		// (drain first — the flush empties the PWC for every queued walk).
		if err := e.Flush(); err != nil {
			return err
		}
		if err := e.tbl.Map(ev.VA, ev.PA.PageBase(), perm.RWX, true); err != nil {
			e.Stats.SkippedUnmappable++
			return nil
		}
		e.mach.MMU.FlushVA(ev.VA)
		e.Stats.Remaps++
	}
	e.enqueue(ev, false)
	return nil
}

// enqueue adds one access to the pending batch, flushing when full.
func (e *Engine) enqueue(ev obs.Event, expectFault bool) {
	i := e.n
	e.reqs[i] = mmu.AccessReq{VA: ev.VA, Kind: ev.Access, Priv: perm.U}
	e.expPA[i] = ev.PA
	if expectFault {
		e.expFault[i] = obs.FaultPage
		e.pendingFault = true
	} else {
		e.expFault[i] = obs.FaultNone
	}
	e.n = i + 1
	if e.n == BlockMax {
		// AccessBatch only errors on infrastructure faults; stash so the
		// next Flush re-raises it (enqueue stays error-free on the hot
		// path).
		if err := e.Flush(); err != nil {
			e.flushErr = err
		}
	}
}

// Flush executes the pending batch through mmu.AccessBatch and verifies
// each result against the recorded outcome. It is a no-op on an empty
// queue.
func (e *Engine) Flush() error {
	if e.flushErr != nil {
		err := e.flushErr
		e.flushErr = nil
		return err
	}
	if e.n == 0 {
		return nil
	}
	n := e.n
	now, err := e.mach.MMU.AccessBatch(e.reqs[:n], e.out[:n], e.now)
	if err != nil {
		return fmt.Errorf("replay: batch at event %d: %w", e.Stats.Events, err)
	}
	e.now = now
	e.Stats.Accesses += uint64(n)
	e.Stats.Blocks++
	for i := 0; i < n; i++ {
		res := &e.out[i]
		if e.expFault[i] == obs.FaultPage {
			if res.PageFault {
				e.Stats.Faults++
			} else {
				e.diverge(i, "expected page fault, got none")
			}
			continue
		}
		switch {
		case res.Faulted():
			e.diverge(i, "unexpected fault")
		case res.PA != e.expPA[i]:
			e.diverge(i, "pa mismatch")
		}
	}
	e.n = 0
	e.pendingFault = false
	return nil
}

// diverge records one replayed-vs-recorded mismatch. Only the first gets
// the (allocating) human rendering.
func (e *Engine) diverge(i int, why string) {
	e.Stats.Divergences++
	if e.Stats.First == "" {
		res := &e.out[i]
		e.Stats.First = fmt.Sprintf("%s: va=%#x want pa=%#x got pa=%#x (page=%v prot=%v access=%v)",
			why, uint64(e.reqs[i].VA), uint64(e.expPA[i]), uint64(res.PA),
			res.PageFault, res.ProtFault, res.AccessFault)
	}
}

// Run replays a full event slice: Step per event, then a final Flush.
func (e *Engine) Run(events []obs.Event) error {
	for i := range events {
		if err := e.Step(events[i]); err != nil {
			return err
		}
	}
	return e.Flush()
}
