// Package hpmp implements the paper's primary contribution: Hybrid Physical
// Memory Protection (§4.2). An HPMP unit is the bank of 16 PMP entries where
// each entry either
//
//   - acts as a classic segment (T=0): the config register's R/W/X is the
//     effective permission for the whole region, checked in zero memory
//     references; or
//   - acts in table mode (T=1): the entry's addr register still describes
//     the protected region, but permissions come from a 2-level PMP Table
//     whose root base lives in the *next* entry's addr register.
//
// Matching and priority are exactly PMP's: the lowest-numbered entry
// covering any byte of the access decides. S/U accesses with no covering
// entry are denied. No new registers or instructions exist — the T bit
// occupies pmpcfg's reserved bit 5, and table roots reuse successor addr
// registers, mirroring the zero-new-state claim of the paper.
package hpmp

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/pmp"
	"hpmp/internal/pmpt"
	"hpmp/internal/stats"
)

// Checker is the HPMP permission-check unit attached to a hart's memory
// path. It embeds the PMP register bank and the PMP Table walker.
type Checker struct {
	PMP    *pmp.Unit
	Walker *pmpt.Walker

	// Trace, when set, receives one obs.KindCheck event per permission
	// check (matching entry, verdict, table-walk cost). Nil costs one
	// pointer compare per check.
	Trace *obs.Tracer

	// Hot-path counter handles, resolved once at construction.
	hDenyNoMatch, hDenyStraddle, hSegmentCheck, hTableCheck *uint64

	// Hist is the permission-check latency histogram ("hpmp.check_latency"
	// in metrics snapshots): one observation per completed check. Segment
	// checks land in the first bucket (zero memory references); table
	// checks carry their pmpte-fetch cycles. Allocated once in NewSized and
	// written in place, so recording stays allocation-free
	// (TestHPMPCheckSegmentZeroAllocs pins it).
	Hist *stats.Histogram

	Counters stats.Counters
}

// NewSized builds a checker with n entries (64 for the ePMP variant).
func NewSized(w *pmpt.Walker, n int) *Checker {
	c := &Checker{PMP: pmp.NewSized(n), Walker: w, Hist: stats.DefaultLatencyHistogram()}
	c.hDenyNoMatch = c.Counters.Handle("hpmp.deny_nomatch")
	c.hDenyStraddle = c.Counters.Handle("hpmp.deny_straddle")
	c.hSegmentCheck = c.Counters.Handle("hpmp.segment_check")
	c.hTableCheck = c.Counters.Handle("hpmp.table_check")
	return c
}

// SetSegment programs entry i in segment mode (T=0) over region with
// permission p — identical to base PMP.
func (c *Checker) SetSegment(i int, region addr.Range, p perm.Perm, locked bool) error {
	return c.PMP.SetSegment(i, region, p, locked)
}

// SetTable programs entry i in table mode (T=1) over region, with the
// 2-level PMP Table rooted at rootBase. Entry i+1 is consumed to hold the
// root pointer (its config is forced Off so it never matches). The last
// entry cannot be in table mode (§4.3: "it has no successor entry").
func (c *Checker) SetTable(i int, region addr.Range, rootBase addr.PA) error {
	return c.SetTableMode(i, region, rootBase, pmpt.Mode2Level)
}

// SetTableMode is SetTable with an explicit table depth (the §4.3 Mode
// extension: Mode2Level reaches 16 GiB, Mode3Level 8 TiB).
func (c *Checker) SetTableMode(i int, region addr.Range, rootBase addr.PA, mode pmpt.TableMode) error {
	if i < 0 || i >= c.PMP.NumEntries()-1 {
		return fmt.Errorf("hpmp: entry %d cannot be in table mode", i)
	}
	if mode.Levels() == 0 {
		return fmt.Errorf("hpmp: reserved table mode %d", mode)
	}
	if region.Size > mode.Reach() {
		return fmt.Errorf("hpmp: region %v exceeds mode-%d reach", region, mode)
	}
	enc, err := addr.NAPOTEncode(uint64(region.Base), region.Size)
	if err != nil {
		return fmt.Errorf("hpmp: table-mode region must be NAPOT: %w", err)
	}
	reg, err := pmpt.EncodeAddrReg(rootBase, mode)
	if err != nil {
		return err
	}
	// Refuse a locked successor before writing entry i, so a refused call
	// leaves both registers as they were.
	if c.PMP.Entry(i + 1).Locked() {
		return fmt.Errorf("hpmp: entry %d is locked", i+1)
	}
	if err := c.PMP.Set(i, pmp.Entry{Addr: enc, Cfg: pmp.MakeCfg(perm.None, pmp.NAPOT, false, true)}); err != nil {
		return err
	}
	return c.PMP.Set(i+1, pmp.Entry{Addr: reg, Cfg: 0}) // Off: holds the root pointer
}

// Clear turns entry i off. Clearing a table-mode entry also clears its
// successor (the root-pointer register).
func (c *Checker) Clear(i int) error {
	if i >= 0 && i < c.PMP.NumEntries() && c.PMP.Entry(i).Table() {
		if err := c.PMP.Clear(i + 1); err != nil {
			return err
		}
	}
	return c.PMP.Clear(i)
}

// TableInfo decodes the table-mode configuration of entry i.
func (c *Checker) TableInfo(i int) (region addr.Range, rootBase addr.PA, ok bool) {
	region, rootBase, _, ok = c.tableInfoMode(i)
	return region, rootBase, ok
}

func (c *Checker) tableInfoMode(i int) (region addr.Range, rootBase addr.PA, mode pmpt.TableMode, ok bool) {
	if i < 0 || i >= c.PMP.NumEntries()-1 || !c.PMP.Entry(i).Table() {
		return addr.Range{}, 0, 0, false
	}
	region, ok = c.PMP.EntryRegion(i)
	if !ok {
		return addr.Range{}, 0, 0, false
	}
	rootBase, mode = pmpt.DecodeAddrReg(c.PMP.Entry(i + 1).Addr)
	return region, rootBase, mode, true
}

// Result describes one HPMP permission check.
type Result struct {
	Allowed   bool
	Entry     int    // matching entry index, or -1
	TableMode bool   // whether the decision came from a PMP Table walk
	MemRefs   int    // pmpte fetches that reached the memory system
	Latency   uint64 // core cycles spent fetching pmptes
	// PermFound is the full R/W/X permission the matching entry (or table)
	// grants. The MMU inlines it into TLB entries ("TLB inlining", §2.2) so
	// later hits skip the checker entirely.
	PermFound perm.Perm
}

// Check validates an access of `size` bytes at pa from privilege `priv`,
// issuing any permission-table references at core-cycle `now`.
func (c *Checker) Check(pa addr.PA, size uint64, k perm.Access, priv perm.Priv, now uint64) (Result, error) {
	res, err := c.checkInner(pa, size, k, priv, now)
	if err == nil {
		c.Hist.Observe(res.Latency)
	}
	if err == nil && c.Trace != nil {
		ev := obs.Event{
			Kind:    obs.KindCheck,
			Access:  k,
			PA:      pa,
			Level:   int8(res.Entry),
			Hit:     res.Allowed,
			Refs:    uint16(res.MemRefs),
			ChkRefs: uint16(res.MemRefs),
			Cycles:  res.Latency,
		}
		if !res.Allowed {
			ev.Fault = obs.FaultAccess
		}
		c.Trace.Emit(ev)
	}
	return res, err
}

func (c *Checker) checkInner(pa addr.PA, size uint64, k perm.Access, priv perm.Priv, now uint64) (Result, error) {
	i := c.PMP.Match(pa, size)
	if i < 0 {
		if priv == perm.M {
			return Result{Allowed: true, Entry: -1, PermFound: perm.RWX}, nil
		}
		*c.hDenyNoMatch++
		return Result{Allowed: false, Entry: -1}, nil
	}
	e := c.PMP.Entry(i)
	region, _ := c.PMP.EntryRegion(i)
	if !region.ContainsRange(addr.Range{Base: pa, Size: size}) {
		*c.hDenyStraddle++
		return Result{Allowed: false, Entry: i}, nil
	}
	if !e.Table() {
		// Segment mode: register check, zero memory references.
		*c.hSegmentCheck++
		if priv == perm.M && !e.Locked() {
			return Result{Allowed: true, Entry: i, PermFound: perm.RWX}, nil
		}
		return Result{Allowed: e.Perm().Allows(k), Entry: i, PermFound: e.Perm()}, nil
	}
	// Table mode. Machine mode is above HPMP (entries are managed by
	// M-mode software), so an unlocked table entry never constrains the
	// monitor and no walk is issued.
	if priv == perm.M {
		return Result{Allowed: true, Entry: i, TableMode: true, PermFound: perm.RWX}, nil
	}
	*c.hTableCheck++
	_, rootBase, mode, ok := c.tableInfoMode(i)
	if !ok {
		return Result{}, fmt.Errorf("hpmp: entry %d in table mode but misconfigured", i)
	}
	w, err := c.Walker.WalkDeep(rootBase, region, mode, pa, now)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Entry:     i,
		TableMode: true,
		MemRefs:   w.MemRefs,
		Latency:   w.Latency,
	}
	if !w.Valid {
		return res, nil
	}
	res.PermFound = w.Perm
	res.Allowed = w.Perm.Allows(k)
	return res, nil
}
