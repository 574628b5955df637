// Package pmp models RISC-V Physical Memory Protection (segment-based
// isolation, §4.1 of the paper): up to 16 entries, each an (addr, config)
// register pair, with OFF/TOR/NA4/NAPOT address matching, static priority
// (lowest-numbered covering entry wins), and the lock bit. S- and U-mode
// accesses not covered by any entry are denied, as the paper's threat model
// requires; M-mode accesses succeed unless a locked entry forbids them.
package pmp

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// NumEntries is the architected entry count of the prototype (§4.2: "Our
// prototype supports 16 entries"). The ePMP extension (§4.3: "future
// RISC-V processors will support 64 PMP entries") is modeled by
// NewSized(EPMPEntries).
const NumEntries = 16

// EPMPEntries is the entry count of the ePMP extension.
const EPMPEntries = 64

// AddrMode is the A field of a pmpcfg register.
type AddrMode uint8

const (
	// Off disables the entry.
	Off AddrMode = iota
	// TOR makes the entry match [prevAddr<<2, addr<<2).
	TOR
	// NA4 matches a naturally aligned 4-byte region.
	NA4
	// NAPOT matches a naturally aligned power-of-two region ≥ 8 bytes.
	NAPOT
)

func (a AddrMode) String() string {
	switch a {
	case Off:
		return "OFF"
	case TOR:
		return "TOR"
	case NA4:
		return "NA4"
	case NAPOT:
		return "NAPOT"
	default:
		return fmt.Sprintf("A(%d)", uint8(a))
	}
}

// Config field layout (pmpcfg byte): R=0, W=1, X=2, A=3..4, bit 5 is the
// reserved bit HPMP later claims for T, L=7.
const (
	cfgR      = 1 << 0
	cfgW      = 1 << 1
	cfgX      = 1 << 2
	cfgAShift = 3
	cfgAMask  = 3 << cfgAShift
	// CfgTBit is reserved-zero in base PMP; the HPMP extension (package
	// hpmp) defines it as the Table-mode bit. Declared here because the bit
	// physically lives in the pmpcfg register.
	CfgTBit = 1 << 5
	cfgL    = 1 << 7
)

// Entry is one PMP entry: the raw addr and config registers.
type Entry struct {
	Addr uint64 // pmpaddr: bits [55:2] of the address
	Cfg  uint8  // pmpcfg byte
}

// Mode returns the entry's address-matching mode.
func (e Entry) Mode() AddrMode { return AddrMode((e.Cfg & cfgAMask) >> cfgAShift) }

// Perm returns the R/W/X permission encoded in the config register.
func (e Entry) Perm() perm.Perm { return perm.Perm(e.Cfg & (cfgR | cfgW | cfgX)) }

// Locked reports the L bit: the entry also constrains M-mode and cannot be
// rewritten until reset.
func (e Entry) Locked() bool { return e.Cfg&cfgL != 0 }

// Table reports the HPMP T bit (always false for base PMP software, which
// must write the reserved bit as zero).
func (e Entry) Table() bool { return e.Cfg&CfgTBit != 0 }

// MakeCfg assembles a config byte.
func MakeCfg(p perm.Perm, a AddrMode, locked, table bool) uint8 {
	c := uint8(p) | uint8(a)<<cfgAShift
	if locked {
		c |= cfgL
	}
	if table {
		c |= CfgTBit
	}
	return c
}

// Unit is the bank of PMP entries plus the matching logic. It is embedded by
// the HPMP checker, which layers table mode on top. Per the privileged
// spec, M-mode accesses that match no entry succeed; S/U accesses that
// match no entry fail.
//
// Every check matches against regions, the entries decoded when they were
// written, rather than decoding every register again: Set is the one write
// path, and it keeps regions current.
type Unit struct {
	entries []Entry
	regions []region // regions[i] is entries[i] decoded
}

// region is one decoded entry: the physical range it covers, and whether it
// matches at all (false for an Off entry and an empty TOR range).
type region struct {
	r  addr.Range
	ok bool
}

// NewSized returns a PMP unit with n entries (NumEntries for the base ISA,
// 64 for ePMP), all off, with the standard M-mode default-allow behaviour.
func NewSized(n int) *Unit {
	return &Unit{entries: make([]Entry, n), regions: make([]region, n)}
}

// NumEntries returns the bank size.
func (u *Unit) NumEntries() int { return len(u.entries) }

// Entry returns the raw registers of entry i.
func (u *Unit) Entry(i int) Entry { return u.entries[i] }

// Set writes entry i and decodes it again, together with entry i+1, whose
// TOR range starts at entry i's address. It refuses an entry out of range
// and a locked entry.
func (u *Unit) Set(i int, e Entry) error {
	if i < 0 || i >= len(u.entries) {
		return fmt.Errorf("pmp: entry %d out of range", i)
	}
	if u.entries[i].Locked() {
		return fmt.Errorf("pmp: entry %d is locked", i)
	}
	u.entries[i] = e
	u.regions[i].r, u.regions[i].ok = u.decode(i)
	if i+1 < len(u.entries) {
		u.regions[i+1].r, u.regions[i+1].ok = u.decode(i + 1)
	}
	return nil
}

// SetSegment programs entry i as a NAPOT (or NA4) segment covering
// [base, base+size) with permission p. size must be a power of two; base
// must be size-aligned.
func (u *Unit) SetSegment(i int, region addr.Range, p perm.Perm, locked bool) error {
	if region.Size == 4 {
		return u.Set(i, Entry{Addr: uint64(region.Base) >> 2, Cfg: MakeCfg(p, NA4, locked, false)})
	}
	enc, err := addr.NAPOTEncode(uint64(region.Base), region.Size)
	if err != nil {
		return err
	}
	return u.Set(i, Entry{Addr: enc, Cfg: MakeCfg(p, NAPOT, locked, false)})
}

// SetTOR programs entry i in top-of-range mode with the given top address;
// the region's bottom is the previous entry's addr register (or 0 for entry
// 0).
func (u *Unit) SetTOR(i int, top addr.PA, p perm.Perm, locked bool) error {
	return u.Set(i, Entry{Addr: uint64(top) >> 2, Cfg: MakeCfg(p, TOR, locked, false)})
}

// Clear turns entry i off.
func (u *Unit) Clear(i int) error { return u.Set(i, Entry{}) }

// EntryRegion returns the physical region entry i covers. ok is false for
// entries that are Off and for an empty TOR range.
func (u *Unit) EntryRegion(i int) (addr.Range, bool) {
	return u.regions[i].r, u.regions[i].ok
}

// decode decodes the physical region entry i covers from the registers.
func (u *Unit) decode(i int) (addr.Range, bool) {
	e := u.entries[i]
	switch e.Mode() {
	case Off:
		return addr.Range{}, false
	case NA4:
		return addr.Range{Base: addr.PA(e.Addr << 2), Size: 4}, true
	case NAPOT:
		base, size := addr.NAPOTDecode(e.Addr)
		return addr.Range{Base: addr.PA(base), Size: size}, true
	case TOR:
		var lo uint64
		if i > 0 {
			lo = u.entries[i-1].Addr << 2
		}
		hi := e.Addr << 2
		if hi <= lo {
			return addr.Range{}, false
		}
		return addr.Range{Base: addr.PA(lo), Size: hi - lo}, true
	}
	return addr.Range{}, false
}

// Match returns the index of the lowest-numbered entry covering any byte of
// [pa, pa+size), or -1. This is the static-priority rule both PMP and HPMP
// use (§4.2 "Permission checking and ordering").
func (u *Unit) Match(pa addr.PA, size uint64) int {
	acc := addr.Range{Base: pa, Size: size}
	for i := range u.regions {
		if d := &u.regions[i]; d.ok && d.r.Overlaps(acc) {
			return i
		}
	}
	return -1
}

// Result describes a permission check outcome.
type Result struct {
	Allowed bool
	Entry   int // matching entry index, or -1
}

// Check validates an access of the given size at pa from privilege mode
// priv. Base PMP semantics: the matching entry's config permission decides;
// no match denies S/U and allows M; locked entries also bind M-mode.
func (u *Unit) Check(pa addr.PA, size uint64, k perm.Access, priv perm.Priv) Result {
	i := u.Match(pa, size)
	if i < 0 {
		if priv == perm.M {
			return Result{Allowed: true, Entry: -1}
		}
		return Result{Allowed: false, Entry: -1}
	}
	e := u.entries[i]
	// The access must fall entirely within the matching entry for a clean
	// grant; partial matches fail per the spec.
	if !u.regions[i].r.ContainsRange(addr.Range{Base: pa, Size: size}) {
		return Result{Allowed: false, Entry: i}
	}
	if priv == perm.M && !e.Locked() {
		return Result{Allowed: true, Entry: i}
	}
	return Result{Allowed: e.Perm().Allows(k), Entry: i}
}
