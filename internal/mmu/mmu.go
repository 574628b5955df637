// Package mmu composes the TLBs, the page-table walker, the HPMP checker,
// and the cache hierarchy into the memory-access pipeline of one hart. It is
// where the paper's memory-reference arithmetic becomes observable:
//
//	Sv39, TLB miss, no isolation      →  4 refs (Fig. 2-a)
//	+ PMP segments                    →  4 refs (Fig. 2-b, checks are free)
//	+ 2-level permission table        → 12 refs (Fig. 2-c)
//	+ HPMP, PT pages in a segment     →  6 refs (Fig. 4)
//
// Integration tests assert these counts exactly.
package mmu

import (
	"fmt"
	"math"

	"hpmp/internal/addr"
	"hpmp/internal/cache"
	"hpmp/internal/hpmp"
	"hpmp/internal/memport"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/ptw"
	"hpmp/internal/stats"
	"hpmp/internal/tlb"
)

// Config sizes the translation structures (defaults follow Table 1).
type Config struct {
	Mode         addr.Mode
	L2TLBEntries int
	PWCEntries   int
	// WalkerBaseline: fixed cycles of walker state-machine overhead added
	// per walk, independent of memory references.
	WalkerBaseline uint64
}

// DefaultConfig returns Table 1's TLB geometry with the L2 TLB scaled down
// (1024 → 64 entries). Workload footprints in this reproduction are scaled
// ~100× below the paper's FPGA runs to keep simulation time tractable; the
// L2 TLB reach is scaled with them so the TLB miss *rate* — the quantity
// that exposes permission-table walks — matches the paper's regime.
// DESIGN.md documents this substitution.
func DefaultConfig(mode addr.Mode) Config {
	return Config{
		Mode:         mode,
		L2TLBEntries: 64,
		PWCEntries:   8,
	}
}

// The L1 TLBs' sizes and the L2 TLB's lookup latency are Table 1's; no
// experiment varies them.
const (
	itlbEntries = 32
	dtlbEntries = 32
	stlbLatency = 4
)

// MMU is the per-hart translation and checking pipeline.
type MMU struct {
	cfg  Config
	Root addr.PA // satp target (root PT page)

	ITLB *tlb.L1
	DTLB *tlb.L1
	STLB *tlb.L2

	Walker  *ptw.Walker
	Checker ptw.Checker // nil → no physical memory isolation
	Hier    *cache.Hierarchy

	// Trace, when set, receives one obs.KindAccess event per completed
	// access; it is the MMU's only per-access observation hook. Nil (the
	// default) is the disabled state and costs one pointer compare per
	// access — the hot-path zero-alloc pins cover it.
	Trace *obs.Tracer

	// Hot-path counter handles, resolved once in New. hData is indexed by
	// cache.Level, replacing the per-access "mmu.data_"+HitLevel string
	// concatenation (one heap allocation per simulated data access).
	hData                                  [cache.NumLevels]*uint64
	hTLBFlush, hTLBFlushVA                 *uint64
	hAccessFaultPT, hPageFault, hProtFault *uint64
	hAccessFaultData, hAccessFaultInline   *uint64

	// LatHist is the end-to-end access-latency histogram ("mmu.access_latency"
	// in metrics snapshots): one observation per completed Access, faulted or
	// not, covering translation plus the data reference. Embedded by value
	// and written in place, so recording stays allocation-free
	// (TestTLBHitAccessZeroAllocs pins it).
	LatHist stats.Histogram

	Counters stats.Counters
}

// New builds an MMU whose data accesses go through hier and whose
// page-table walker fetches PTEs through walkerPort (cpu.NewMachine's port
// skips the L1D, as Rocket does). checker may be nil (no isolation, Fig.
// 2-a).
func New(cfg Config, hier *cache.Hierarchy, checker ptw.Checker, walkerPort memport.Port) *MMU {
	m := &MMU{
		cfg:     cfg,
		ITLB:    tlb.NewL1("itlb", itlbEntries),
		DTLB:    tlb.NewL1("dtlb", dtlbEntries),
		STLB:    tlb.NewL2("stlb", cfg.L2TLBEntries, stlbLatency),
		Walker:  ptw.New(cfg.Mode, walkerPort, checker, cfg.PWCEntries),
		Checker: checker,
		Hier:    hier,
	}
	for lvl := cache.Level(0); lvl < cache.NumLevels; lvl++ {
		m.hData[lvl] = m.Counters.Handle("mmu.data_" + lvl.String())
	}
	m.hTLBFlush = m.Counters.Handle("mmu.tlb_flush")
	m.hTLBFlushVA = m.Counters.Handle("mmu.tlb_flush_va")
	m.hAccessFaultPT = m.Counters.Handle("mmu.access_fault_pt")
	m.hPageFault = m.Counters.Handle("mmu.page_fault")
	m.hProtFault = m.Counters.Handle("mmu.prot_fault")
	m.hAccessFaultData = m.Counters.Handle("mmu.access_fault_data")
	m.hAccessFaultInline = m.Counters.Handle("mmu.access_fault_inline")
	return m
}

// SetRoot points satp at a new root PT page (context switch). The TLBs are
// not flushed automatically — call FlushTLB, as the kernel's sfence.vma
// would.
func (m *MMU) SetRoot(root addr.PA) { m.Root = root }

// FlushTLB models sfence.vma with no operands plus the monitor-mandated
// flush after HPMP updates: all TLBs and the PWC are invalidated.
func (m *MMU) FlushTLB() {
	m.ITLB.FlushAll()
	m.DTLB.FlushAll()
	m.STLB.FlushAll()
	m.Walker.FlushPWC()
	*m.hTLBFlush++
}

// FlushVA invalidates one page's translation (sfence.vma with an address).
// It bumps mmu.tlb_flush_va so per-address shootdown storms are visible in
// metrics the same way full flushes are (FlushTLB / mmu.tlb_flush) — the
// cost matters doubly here because even the single-address form empties the
// whole PWC.
//
// FlushVA deliberately does NOT touch the PMPT walker cache:
// sfence.vma (and this per-VA form of it) orders updates to the
// VA-translation structures — TLB entries and page-table-walk caches keyed
// by virtual address. The pmpte caches are keyed by *physical* address and
// belong to the physical-isolation dimension, whose fence is separate
// (mirroring how HFENCE.GVMA, not sfence.vma, orders G-stage structures):
// on every HPMP register or table edit the monitor flushes the whole TLB and
// the machine's PMPTW cache (monitor.flushAfterUpdate, §5).
// TestFlushVADoesNotScopePMPTWalkerCache pins exactly this split.
func (m *MMU) FlushVA(va addr.VA) {
	vpn := va.Frame()
	m.ITLB.FlushVPN(vpn)
	m.DTLB.FlushVPN(vpn)
	m.STLB.FlushVPN(vpn)
	// The PWC is conservatively flushed, as simple hardware does.
	m.Walker.FlushPWC()
	*m.hTLBFlushVA++
}

// Result describes one access through the MMU.
type Result struct {
	PA      addr.PA
	Latency uint64

	// TLBHit says where the translation came from: obs.TLBL1, obs.TLBL2,
	// or obs.TLBMiss when a hardware walk ran. Every completed access sets
	// it, so the trace record carries it unchanged.
	TLBHit    obs.TLBPath
	Walk      ptw.Result
	PageFault bool
	// ProtFault: the page mapping exists but the PTE permission or
	// privilege check failed (kernel would signal the process).
	ProtFault bool
	// AccessFault: physical memory isolation denied the access (PT page or
	// data page), i.e. the secure monitor's policy fired.
	AccessFault bool

	DataCheckRefs int // permission-table refs validating the data address
	DataRefs      int // the data reference itself (1 on success)
	// DataLatency is the portion of Latency spent on the data reference
	// through the cache hierarchy (the part an OoO core can overlap); the
	// remainder is translation machinery, which serializes.
	DataLatency uint64
}

// TotalRefs returns every memory reference this access performed: PT pages,
// PT-page checks, data checks, and the data itself.
func (r Result) TotalRefs() int {
	return r.Walk.PTRefs + r.Walk.PTCheckRefs + r.DataCheckRefs + r.DataRefs
}

// Faulted reports whether any fault stopped the access.
func (r Result) Faulted() bool { return r.PageFault || r.ProtFault || r.AccessFault }

// Access runs one data access (Read/Write) or instruction fetch at va from
// privilege priv, starting at core-cycle now, writing the outcome into
// *out. On success the data reference itself is performed through the cache
// hierarchy.
//
// The out-parameter form (rather than returning Result) is deliberate: the
// struct is large enough that returning it by value through
// Access → accessInner → finishFromTLB showed up as ~24% of simulator CPU
// in runtime.duffcopy/duffzero; building the result in the caller's storage
// removes every intermediate copy.
func (m *MMU) Access(va addr.VA, k perm.Access, priv perm.Priv, now uint64, out *Result) error {
	*out = Result{}
	err := m.accessInner(va, k, priv, now, out)
	if err == nil {
		m.LatHist.Observe(out.Latency)
		if m.Trace != nil {
			m.Trace.Emit(AccessEvent(va, k, out))
		}
	}
	return err
}

// AccessReq is one reference of a batched access stream.
type AccessReq struct {
	VA   addr.VA
	Kind perm.Access
	Priv perm.Priv
}

// AccessBatch runs len(refs) accesses back to back, advancing the issue
// cycle by each access's latency (the same serial-walk idiom the probe
// loops in internal/bench use), and returns the cycle after the last one.
// out[i] receives refs[i]'s result; out must be at least as long as refs.
//
// It is a loop over Access, so the batch is the same len(refs) sequential
// calls a caller would make: faulted references record their fault in
// out[i] and the batch continues.
func (m *MMU) AccessBatch(refs []AccessReq, out []Result, now uint64) (uint64, error) {
	if len(out) < len(refs) {
		panic("mmu: AccessBatch out slice shorter than refs")
	}
	for i := range refs {
		r := &refs[i]
		if err := m.Access(r.VA, r.Kind, r.Priv, now, &out[i]); err != nil {
			return now, err
		}
		now += out[i].Latency
	}
	return now, nil
}

// satRefs clamps a reference count to obs.Event's uint16 fields. Plain
// uint16(n) conversions silently wrap: a pathological walk past 65535
// references (deep nested permission tables, or a synthetic stress Result)
// would report a tiny count instead of a huge one. Saturating keeps the
// field honest at the extreme — 65535 reads as "at least this many".
func satRefs(n int) uint16 {
	if n >= math.MaxUint16 {
		return math.MaxUint16
	}
	if n < 0 {
		return 0
	}
	return uint16(n)
}

// AccessEvent maps a completed access onto the shared trace record, the
// one Result → Event mapping every trace consumer reads. The MMU calls it
// only with a tracer attached, so its cost never reaches the disabled hot
// path.
func AccessEvent(va addr.VA, k perm.Access, res *Result) obs.Event {
	ev := obs.Event{
		Kind:    obs.KindAccess,
		Access:  k,
		TLB:     res.TLBHit,
		VA:      va,
		PA:      res.PA,
		Level:   -1,
		Refs:    satRefs(res.TotalRefs()),
		ChkRefs: satRefs(res.Walk.PTCheckRefs + res.DataCheckRefs),
		Cycles:  res.Latency,
	}
	switch {
	case res.PageFault:
		ev.Fault = obs.FaultPage
	case res.ProtFault:
		ev.Fault = obs.FaultProt
	case res.AccessFault:
		ev.Fault = obs.FaultAccess
	}
	return ev
}

// accessInner fills *res (pre-zeroed by the caller) with one access's
// outcome. It never copies Result: TLB-hit completion and the data access
// mutate res in place, and the walk sub-result is built directly in
// res.Walk via WalkInto.
func (m *MMU) accessInner(va addr.VA, k perm.Access, priv perm.Priv, now uint64, res *Result) error {
	vpn := va.Frame()
	l1 := m.DTLB
	if k == perm.Fetch {
		l1 = m.ITLB
	}

	// 1. L1 TLB.
	if e, ok := l1.Lookup(vpn); ok {
		res.TLBHit = obs.TLBL1
		return m.finishFromTLB(res, e, va, k, priv, now)
	}
	// 2. L2 TLB. An absent L2 (zero capacity) performs no probe and charges
	// no latency — there is no structure to consult.
	if m.STLB.Len() > 0 {
		res.Latency += m.STLB.Latency
		if e, ok := m.STLB.Lookup(vpn); ok {
			res.TLBHit = obs.TLBL2
			l1.Insert(vpn, *e)
			return m.finishFromTLB(res, e, va, k, priv, now)
		}
	}
	res.TLBHit = obs.TLBMiss

	// 3. Hardware walk.
	res.Latency += m.cfg.WalkerBaseline
	if err := m.Walker.WalkInto(m.Root, va, now+res.Latency, &res.Walk); err != nil {
		return err
	}
	res.Latency += res.Walk.Latency
	if res.Walk.AccessFault {
		res.AccessFault = true
		*m.hAccessFaultPT++
		return nil
	}
	if res.Walk.PageFault {
		res.PageFault = true
		*m.hPageFault++
		return nil
	}
	tr := res.Walk.Translation
	if !m.pagePermOK(tr.Perm, tr.User, k, priv) {
		res.ProtFault = true
		*m.hProtFault++
		return nil
	}

	// 4. Physical check of the data address.
	physPerm := perm.RWX
	if m.Checker != nil {
		chk, err := m.Checker.Check(tr.PA.PageBase(), addr.PageSize, k, priv, now+res.Latency)
		if err != nil {
			return err
		}
		res.Latency += chk.Latency
		res.DataCheckRefs += chk.MemRefs
		if !chk.Allowed {
			res.AccessFault = true
			*m.hAccessFaultData++
			return nil
		}
		physPerm = chk.PermFound
	}

	// 5. Fill TLBs with the translation and the inlined physical
	// permission.
	entry := tlb.Entry{
		PFN:      tr.PA.Frame(),
		Perm:     tr.Perm,
		User:     tr.User,
		PhysPerm: physPerm,
	}
	l1.Insert(vpn, entry)
	m.STLB.Insert(vpn, entry)

	// 6. The data reference (tr.PA already includes the page offset).
	res.PA = tr.PA
	m.dataAccess(res, k, now)
	return nil
}

// finishFromTLB completes an access that hit a TLB: both the page permission
// and the inlined physical permission are checked for free, then the data
// reference runs. e aliases TLB storage (see tlb.L1.Lookup) and is only
// read; everything lands in *res.
func (m *MMU) finishFromTLB(res *Result, e *tlb.Entry, va addr.VA, k perm.Access, priv perm.Priv, now uint64) error {
	if !m.pagePermOK(e.Perm, e.User, k, priv) {
		res.ProtFault = true
		*m.hProtFault++
		return nil
	}
	if !e.PhysPerm.Allows(k) {
		res.AccessFault = true
		*m.hAccessFaultInline++
		return nil
	}
	res.PA = addr.PA(e.PFN<<addr.PageShift) + addr.PA(va.Offset())
	m.dataAccess(res, k, now)
	return nil
}

func (m *MMU) dataAccess(res *Result, k perm.Access, now uint64) {
	r := m.Hier.Access(res.PA, now+res.Latency, k == perm.Write)
	res.Latency += r.Latency
	res.DataLatency = r.Latency
	res.DataRefs = 1
	*m.hData[r.Level]++
}

// pagePermOK applies the PTE permission and privilege rules: U-mode needs
// the U bit; S-mode must not execute user pages (we allow S data access to
// user pages, as Linux with SUM does during syscalls).
func (m *MMU) pagePermOK(p perm.Perm, user bool, k perm.Access, priv perm.Priv) bool {
	if !p.Allows(k) {
		return false
	}
	switch priv {
	case perm.U:
		return user
	case perm.S, perm.M:
		if k == perm.Fetch && user {
			return false
		}
		return true
	default:
		return false
	}
}

// Translate resolves va without performing the data reference and without
// filling TLBs — the monitor and kernel use it for bookkeeping. The walk
// runs at now=0 outside any timed instruction stream, so it deliberately
// skips the ptw.walk_latency histogram (WalkBookkeeping): those time-zero
// samples would skew the hardware-walk latency distribution. Walk counters
// still advance — the PT references are real work.
func (m *MMU) Translate(va addr.VA) (addr.PA, error) {
	var walk ptw.Result
	if err := m.Walker.WalkBookkeeping(m.Root, va, 0, &walk); err != nil {
		return 0, err
	}
	if walk.PageFault || walk.AccessFault {
		return 0, fmt.Errorf("mmu: translate %v faulted (page=%v access=%v)",
			va, walk.PageFault, walk.AccessFault)
	}
	return walk.Translation.PA, nil
}

// HPMPChecker returns the checker as *hpmp.Checker when it is one (the
// monitor needs the concrete type to program entries).
func (m *MMU) HPMPChecker() (*hpmp.Checker, bool) {
	c, ok := m.Checker.(*hpmp.Checker)
	return c, ok
}
