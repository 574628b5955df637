// Package addr defines the address arithmetic shared by every layer of the
// simulator: physical and virtual address types, page-size constants, the
// Sv39/Sv48/Sv57 virtual-address splits from the RISC-V privileged
// specification, and the NAPOT/alignment helpers used by the PMP and PMP
// Table models.
package addr

import (
	"fmt"
	"math/bits"
)

// PA is a physical address. The simulator models RV64, so physical addresses
// are 64-bit values even though real implementations expose at most 56 bits.
type PA uint64

// VA is a virtual address in some address space (guest or host).
type VA uint64

// GPA is a guest-physical address, produced by a guest page-table walk and
// consumed by the nested (hgatp) walk.
type GPA uint64

// Fundamental page geometry. The paper's prototype uses 4 KiB base pages
// everywhere (the PMP Table optionally supports other granules; we model the
// 4 KiB configuration that all evaluation numbers use).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1

	MegaPageShift = 21 // Sv39 level-1 superpage (2 MiB)
	GigaPageShift = 30 // Sv39 level-2 superpage (1 GiB)

	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// Frame returns the physical frame number of the address.
func (p PA) Frame() uint64 { return uint64(p) >> PageShift }

// Offset returns the offset of the address within its 4 KiB page.
func (p PA) Offset() uint64 { return uint64(p) & PageMask }

// PageBase returns the address of the first byte of the page containing p.
func (p PA) PageBase() PA { return p &^ PageMask }

// Line returns the cache-line index of the address for the given line size.
func (p PA) Line(lineSize uint64) uint64 { return uint64(p) / lineSize }

func (p PA) String() string { return fmt.Sprintf("PA(%#x)", uint64(p)) }

// Frame returns the virtual page number of the address.
func (v VA) Frame() uint64 { return uint64(v) >> PageShift }

// Offset returns the offset of the address within its 4 KiB page.
func (v VA) Offset() uint64 { return uint64(v) & PageMask }

// PageBase returns the address of the first byte of the page containing v.
func (v VA) PageBase() VA { return v &^ PageMask }

func (v VA) String() string { return fmt.Sprintf("VA(%#x)", uint64(v)) }

// Frame returns the guest-physical frame number of the address.
func (g GPA) Frame() uint64 { return uint64(g) >> PageShift }

// Offset returns the offset within the 4 KiB guest-physical page.
func (g GPA) Offset() uint64 { return uint64(g) & PageMask }

func (g GPA) String() string { return fmt.Sprintf("GPA(%#x)", uint64(g)) }

// Mode identifies a RISC-V address-translation scheme.
type Mode int

const (
	// Bare disables translation: VA == PA.
	Bare Mode = iota
	// Sv39 is the 3-level, 39-bit scheme (the paper's evaluation target).
	Sv39
	// Sv48 is the 4-level, 48-bit scheme.
	Sv48
	// Sv57 is the 5-level, 57-bit scheme.
	Sv57
)

func (m Mode) String() string {
	switch m {
	case Bare:
		return "Bare"
	case Sv39:
		return "Sv39"
	case Sv48:
		return "Sv48"
	case Sv57:
		return "Sv57"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Levels returns the number of page-table levels for the mode. Bare has none.
func (m Mode) Levels() int {
	switch m {
	case Sv39:
		return 3
	case Sv48:
		return 4
	case Sv57:
		return 5
	default:
		return 0
	}
}

// VABits returns the number of significant virtual-address bits.
func (m Mode) VABits() int {
	switch m {
	case Sv39:
		return 39
	case Sv48:
		return 48
	case Sv57:
		return 57
	default:
		return 64
	}
}

// VPN extracts the level-th virtual page number field of va under mode m.
// Level 0 is the leaf (lowest 9 bits above the page offset), matching the
// RISC-V specification's VPN[0].
func (m Mode) VPN(va VA, level int) uint64 {
	return (uint64(va) >> (PageShift + 9*level)) & 0x1ff
}

// Canonical reports whether va is a canonical address for the mode: bits
// above the VA width must equal the sign bit (RISC-V requires bits 63..N-1 to
// match bit N-1).
func (m Mode) Canonical(va VA) bool {
	if m == Bare {
		return true
	}
	bits := m.VABits()
	top := uint64(va) >> (bits - 1)
	allOnes := uint64(1)<<(64-bits+1) - 1
	return top == 0 || top == allOnes
}

// IsAligned reports whether a is a multiple of align (align must be a power
// of two).
func IsAligned(a uint64, align uint64) bool { return a&(align-1) == 0 }

// AlignDown rounds a down to a multiple of align (a power of two).
func AlignDown(a, align uint64) uint64 { return a &^ (align - 1) }

// AlignUp rounds a up to a multiple of align (a power of two).
func AlignUp(a, align uint64) uint64 { return (a + align - 1) &^ (align - 1) }

// IsPow2 reports whether x is a power of two. Zero is not a power of two.
func IsPow2(x uint64) bool { return x != 0 && x&(x-1) == 0 }

// NAPOTEncode encodes the region [base, base+size) as a RISC-V
// naturally-aligned power-of-two pmpaddr value. size must be a power of two
// ≥ 8 and base must be size-aligned. The returned value goes in a pmpaddr
// register with A=NAPOT.
func NAPOTEncode(base, size uint64) (uint64, error) {
	if !IsPow2(size) || size < 8 {
		return 0, fmt.Errorf("napot: size %#x is not a power of two ≥ 8", size)
	}
	if !IsAligned(base, size) {
		return 0, fmt.Errorf("napot: base %#x not aligned to size %#x", base, size)
	}
	// pmpaddr holds address bits [55:2]; a NAPOT region of 2^(k+3) bytes sets
	// the low k bits to 1 preceded by a 0.
	return base>>2 | (size/8 - 1), nil
}

// NAPOTDecode recovers (base, size) from a pmpaddr register value encoded in
// NAPOT form. Every PMP check decodes its entries, so the trailing ones are
// counted in one instruction rather than bit by bit.
func NAPOTDecode(pmpaddr uint64) (base, size uint64) {
	k := bits.TrailingZeros64(^pmpaddr) // trailing ones of pmpaddr
	size = uint64(8) << k
	base = (pmpaddr &^ (uint64(1)<<k - 1)) << 2
	return base, size
}

// Range is a half-open physical address range [Base, Base+Size).
type Range struct {
	Base PA
	Size uint64
}

// End returns the first address past the range.
func (r Range) End() PA { return r.Base + PA(r.Size) }

// Contains reports whether pa lies inside the range.
func (r Range) Contains(pa PA) bool { return pa >= r.Base && pa < r.End() }

// ContainsRange reports whether the whole of o lies inside r.
func (r Range) ContainsRange(o Range) bool {
	return o.Base >= r.Base && o.End() <= r.End()
}

// Overlaps reports whether the two ranges share any byte.
func (r Range) Overlaps(o Range) bool {
	return r.Base < o.End() && o.Base < r.End()
}

func (r Range) String() string {
	return fmt.Sprintf("[%#x, %#x)", uint64(r.Base), uint64(r.End()))
}
