// Package pt implements RISC-V page tables (Sv39/Sv48/Sv57, and the
// hypervisor's Sv39x4) living in simulated memory: PTE encode/decode,
// software construction (map/unmap/protect), and a software translation
// oracle against which the hardware walker (package ptw) is verified.
//
// The package also exposes WalkPath, the exact sequence of PTE addresses a
// hardware walker must touch for a VA — this is what the experiment code
// uses to prime Table-2 cache/PWC states and what makes the memory-reference
// counts of paper Figures 2/4/8 checkable.
package pt

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// PTE bit layout per the privileged spec.
const (
	FlagV = 1 << 0
	FlagR = 1 << 1
	FlagW = 1 << 2
	FlagX = 1 << 3
	FlagU = 1 << 4
	FlagG = 1 << 5
	FlagA = 1 << 6
	FlagD = 1 << 7

	ppnShift = 10
	ppnMask  = (uint64(1) << 44) - 1
)

// PTE is a raw RISC-V page-table entry.
type PTE uint64

// MakeLeaf builds a valid leaf PTE mapping to the frame of pa with the
// given permission; A/D are pre-set (the simulator does not model A/D
// traps).
func MakeLeaf(pa addr.PA, p perm.Perm, user bool) PTE {
	v := uint64(FlagV | FlagA | FlagD)
	v |= uint64(p) << 1 // perm.R=1<<0 → FlagR=1<<1 etc.
	if user {
		v |= FlagU
	}
	v |= (pa.Frame() & ppnMask) << ppnShift
	return PTE(v)
}

// MakePointer builds a non-leaf PTE referencing the next-level table.
func MakePointer(next addr.PA) PTE {
	return PTE(uint64(FlagV) | (next.Frame()&ppnMask)<<ppnShift)
}

// Valid reports the V bit.
func (p PTE) Valid() bool { return uint64(p)&FlagV != 0 }

// Leaf reports whether the PTE is a leaf (any of R/W/X set).
func (p PTE) Leaf() bool { return uint64(p)&(FlagR|FlagW|FlagX) != 0 }

// Perm returns the R/W/X permission of a leaf PTE.
func (p PTE) Perm() perm.Perm { return perm.Perm((uint64(p) >> 1) & 0x7) }

// User reports the U bit.
func (p PTE) User() bool { return uint64(p)&FlagU != 0 }

// PPN returns the physical frame the PTE references.
func (p PTE) PPN() uint64 { return (uint64(p) >> ppnShift) & ppnMask }

// Target returns the physical address the PTE references (frame base).
func (p PTE) Target() addr.PA { return addr.PA(p.PPN() << addr.PageShift) }

func (p PTE) String() string {
	if !p.Valid() {
		return "PTE(invalid)"
	}
	if !p.Leaf() {
		return fmt.Sprintf("PTE(ptr→%#x)", uint64(p.Target()))
	}
	return fmt.Sprintf("PTE(%#x %v u=%v)", uint64(p.Target()), p.Perm(), p.User())
}

// Store is the memory a table's pages live in. *phys.Memory is the store
// of native and nested tables; a guest table's store is guest-physical
// memory, reached through the nested table.
type Store interface {
	Read64(pa addr.PA) (uint64, error)
	Write64(pa addr.PA, v uint64) error
	ZeroPage(pa addr.PA) error
}

// FrameSource hands out page-table frames in the store's address space.
// *phys.FrameAllocator is one.
type FrameSource interface {
	Alloc() (addr.PA, error)
}

// Table is a software-managed page table of a given mode rooted in a
// Store. PT pages are drawn from a FrameSource — the paper's key software
// lever: Penglai-HPMP points it at a contiguous "fast" GMS so every PT
// page lands inside one segment. The same builder makes native
// (Sv39/Sv48/Sv57), nested (Sv39x4) and guest tables.
type Table struct {
	Mode    addr.Mode
	mem     Store
	alloc   FrameSource
	root    addr.PA
	ptPages []addr.PA // every PT page allocated (root first)
}

// New allocates an empty page table of the given mode. A Sv39x4 root spans
// four pages, which must come from alloc contiguously.
func New(mem Store, alloc FrameSource, mode addr.Mode) (*Table, error) {
	if mode.Levels() == 0 {
		return nil, fmt.Errorf("pt: mode %v has no page table", mode)
	}
	rootPages := 1
	if mode == addr.Sv39x4 {
		rootPages = 4
	}
	t := &Table{Mode: mode, mem: mem, alloc: alloc}
	for i := 0; i < rootPages; i++ {
		pa, err := t.newPage()
		if err != nil {
			return nil, fmt.Errorf("pt: allocating %v root: %w", mode, err)
		}
		if pa != t.ptPages[0]+addr.PA(i*addr.PageSize) {
			return nil, fmt.Errorf("pt: %v root pages not contiguous", mode)
		}
	}
	t.root = t.ptPages[0]
	return t, nil
}

// newPage allocates and zeroes one PT page.
func (t *Table) newPage() (addr.PA, error) {
	pa, err := t.alloc.Alloc()
	if err != nil {
		return 0, err
	}
	if err := t.mem.ZeroPage(pa); err != nil {
		return 0, err
	}
	t.ptPages = append(t.ptPages, pa)
	return pa, nil
}

// Root returns the root PT page (the satp/hgatp PPN target).
func (t *Table) Root() addr.PA { return t.root }

// PTPages returns every page-table page in allocation order.
func (t *Table) PTPages() []addr.PA {
	out := make([]addr.PA, len(t.ptPages))
	copy(out, t.ptPages)
	return out
}

// pteAddr returns the address of the level-`level` PTE for va inside the
// table page at base.
func (t *Table) pteAddr(base addr.PA, va addr.VA, level int) addr.PA {
	return base + addr.PA(t.Mode.VPN(va, level)*8)
}

// Map installs a 4 KiB mapping va→pa with permission p. Intermediate PT
// pages are created as needed. Remapping an existing leaf overwrites it.
func (t *Table) Map(va addr.VA, pa addr.PA, p perm.Perm, user bool) error {
	ea, err := t.descend(va, 0)
	if err != nil {
		return err
	}
	return t.mem.Write64(ea, uint64(MakeLeaf(pa, p, user)))
}

// MapSuper installs a superpage leaf at the given level (1 = 2 MiB,
// 2 = 1 GiB for Sv39). va and pa must be aligned to the superpage span.
func (t *Table) MapSuper(va addr.VA, pa addr.PA, level int, p perm.Perm, user bool) error {
	if level < 1 || level >= t.Mode.Levels() {
		return fmt.Errorf("pt: superpage level %d invalid for %v", level, t.Mode)
	}
	span := uint64(1) << (addr.PageShift + 9*level)
	if !addr.IsAligned(uint64(va), span) || !addr.IsAligned(uint64(pa), span) {
		return fmt.Errorf("pt: superpage at %v→%v not %d-aligned", va, pa, span)
	}
	ea, err := t.descend(va, level)
	if err != nil {
		return err
	}
	return t.mem.Write64(ea, uint64(MakeLeaf(pa, p, user)))
}

// descend walks from the root to the table page that holds va's
// level-`level` PTE, allocating missing intermediate pages, and returns
// that PTE's address. A superpage leaf above `level` is an error.
func (t *Table) descend(va addr.VA, level int) (addr.PA, error) {
	if !t.Mode.Canonical(va) {
		return 0, fmt.Errorf("pt: non-canonical %v for %v", va, t.Mode)
	}
	base := t.root
	for l := t.Mode.Levels() - 1; l > level; l-- {
		ea := t.pteAddr(base, va, l)
		raw, err := t.mem.Read64(ea)
		if err != nil {
			return 0, err
		}
		e := PTE(raw)
		switch {
		case !e.Valid():
			next, err := t.newPage()
			if err != nil {
				return 0, fmt.Errorf("pt: allocating level-%d table: %w", l-1, err)
			}
			if err := t.mem.Write64(ea, uint64(MakePointer(next))); err != nil {
				return 0, err
			}
			base = next
		case e.Leaf():
			return 0, fmt.Errorf("pt: %v already covered by a level-%d superpage", va, l)
		default:
			base = e.Target()
		}
	}
	return t.pteAddr(base, va, level), nil
}

// MapRange maps n consecutive pages starting at va to the frames returned
// by nextFrame (called once per page), as n Map calls would: frames are
// drawn, tables allocated and errors returned in the same order. It
// descends once per leaf table (2 MiB of VA) and writes that table's PTEs
// in turn.
func (t *Table) MapRange(va addr.VA, pages int, p perm.Perm, user bool, nextFrame func() (addr.PA, error)) error {
	var ea addr.PA
	for i := 0; i < pages; i++ {
		pa, err := nextFrame()
		if err != nil {
			return err
		}
		v := va + addr.VA(i*addr.PageSize)
		if i == 0 || t.Mode.VPN(v, 0) == 0 {
			if ea, err = t.descend(v, 0); err != nil {
				return err
			}
		}
		if err := t.mem.Write64(ea, uint64(MakeLeaf(pa, p, user))); err != nil {
			return err
		}
		ea += 8
	}
	return nil
}

// Unmap clears the leaf PTE for va (intermediate tables are not reclaimed,
// matching common kernels). It returns the frame that was mapped.
func (t *Table) Unmap(va addr.VA) (addr.PA, error) {
	ea, e, _, err := t.leafPTE(va)
	if err != nil {
		return 0, err
	}
	if err := t.mem.Write64(ea, 0); err != nil {
		return 0, err
	}
	return e.Target(), nil
}

// Protect rewrites the permission of the existing mapping at va.
func (t *Table) Protect(va addr.VA, p perm.Perm) error {
	ea, e, user, err := t.leafPTE(va)
	if err != nil {
		return err
	}
	return t.mem.Write64(ea, uint64(MakeLeaf(e.Target(), p, user)))
}

// leafPTE finds the leaf PTE for va.
func (t *Table) leafPTE(va addr.VA) (addr.PA, PTE, bool, error) {
	ea, e, level, err := t.walk(va)
	switch {
	case err != nil:
		return 0, 0, false, err
	case !e.Valid():
		return 0, 0, false, &FaultError{VA: va, Level: level}
	case level != 0:
		return 0, 0, false, fmt.Errorf("pt: %v maps a level-%d superpage", va, level)
	}
	return ea, e, e.User(), nil
}

// walk descends from the root toward va's leaf and returns the address,
// value and level of the first PTE that is invalid or a leaf. It allocates
// nothing unless a read fails.
func (t *Table) walk(va addr.VA) (addr.PA, PTE, int, error) {
	base := t.root
	for level := t.Mode.Levels() - 1; level >= 0; level-- {
		ea := t.pteAddr(base, va, level)
		raw, err := t.mem.Read64(ea)
		if err != nil {
			return 0, 0, 0, err
		}
		e := PTE(raw)
		if !e.Valid() || e.Leaf() {
			return ea, e, level, nil
		}
		base = e.Target()
	}
	return 0, 0, 0, fmt.Errorf("pt: walk fell through for %v", va)
}

// Lookup returns the valid 4 KiB leaf PTE that maps va, and false when va
// is non-canonical or unmapped, or lies under a superpage. Unlike
// TranslateSW it allocates nothing for an unmapped va.
func (t *Table) Lookup(va addr.VA) (PTE, bool) {
	if !t.Mode.Canonical(va) {
		return 0, false
	}
	_, e, level, err := t.walk(va)
	return e, err == nil && e.Valid() && level == 0
}

// FaultError is a page fault discovered during a software walk.
type FaultError struct {
	VA    addr.VA
	Level int
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("pt: page fault at %v (level %d invalid)", e.VA, e.Level)
}

// Translation is the result of a successful software walk.
type Translation struct {
	PA   addr.PA
	Perm perm.Perm
	User bool
}

// TranslateSW performs an untimed software walk — the oracle for the
// hardware walker and the monitor's bookkeeping tool.
func (t *Table) TranslateSW(va addr.VA) (Translation, error) {
	_, e, _, err := t.leafPTE(va)
	if err != nil {
		return Translation{}, err
	}
	return Translation{
		PA:   e.Target() + addr.PA(va.Offset()),
		Perm: e.Perm(),
		User: e.User(),
	}, nil
}

// WalkPath returns, in order, the physical addresses of the PTEs a
// hardware walker fetches to translate va, root level first. It does not
// require the mapping to exist — the path is truncated at the first
// invalid entry, mirroring hardware behaviour.
func (t *Table) WalkPath(va addr.VA) ([]addr.PA, error) {
	var steps []addr.PA
	base := t.root
	for level := t.Mode.Levels() - 1; level >= 0; level-- {
		ea := t.pteAddr(base, va, level)
		steps = append(steps, ea)
		raw, err := t.mem.Read64(ea)
		if err != nil {
			return steps, err
		}
		e := PTE(raw)
		if !e.Valid() || e.Leaf() {
			return steps, nil
		}
		base = e.Target()
	}
	return steps, nil
}
