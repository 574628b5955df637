package addr

import (
	"testing"
	"testing/quick"
)

func TestPageMath(t *testing.T) {
	p := PA(0x8000_1abc)
	if got := p.Frame(); got != 0x80001 {
		t.Errorf("Frame = %#x, want 0x80001", got)
	}
	if got := p.Offset(); got != 0xabc {
		t.Errorf("Offset = %#x, want 0xabc", got)
	}
	if got := p.PageBase(); got != 0x8000_1000 {
		t.Errorf("PageBase = %#x, want 0x80001000", uint64(got))
	}
	v := VA(0x4000_2fff)
	if v.Frame() != 0x40002 || v.Offset() != 0xfff {
		t.Errorf("VA frame/offset wrong: %#x %#x", v.Frame(), v.Offset())
	}
}

func TestModeLevels(t *testing.T) {
	cases := []struct {
		m      Mode
		levels int
		bits   int
	}{
		{Bare, 0, 64},
		{Sv39, 3, 39},
		{Sv48, 4, 48},
		{Sv57, 5, 57},
		{Sv39x4, 3, 41},
	}
	for _, c := range cases {
		if got := c.m.Levels(); got != c.levels {
			t.Errorf("%v.Levels = %d, want %d", c.m, got, c.levels)
		}
		if got := c.m.VABits(); got != c.bits {
			t.Errorf("%v.VABits = %d, want %d", c.m, got, c.bits)
		}
	}
}

func TestVPNSplit(t *testing.T) {
	// Construct a VA with distinct VPN fields: VPN[2]=5, VPN[1]=3, VPN[0]=7.
	va := VA(5<<30 | 3<<21 | 7<<12 | 0x123)
	if got := Sv39.VPN(va, 2); got != 5 {
		t.Errorf("VPN[2] = %d, want 5", got)
	}
	if got := Sv39.VPN(va, 1); got != 3 {
		t.Errorf("VPN[1] = %d, want 3", got)
	}
	if got := Sv39.VPN(va, 0); got != 7 {
		t.Errorf("VPN[0] = %d, want 7", got)
	}
}

func TestSv39x4Geometry(t *testing.T) {
	// 600 GiB lies past Sv39's reach; Sv39x4's 11-bit root field holds it.
	gpa := VA(uint64(600)*GiB | 3<<21 | 7<<12)
	if got := Sv39x4.VPN(gpa, 2); got != 600 {
		t.Errorf("Sv39x4 VPN[2] = %d, want 600", got)
	}
	if got := Sv39.VPN(gpa, 2); got != 600&0x1ff {
		t.Errorf("Sv39 VPN[2] = %d, want %d", got, 600&0x1ff)
	}
	if got := Sv39x4.VPN(gpa, 1); got != 3 {
		t.Errorf("Sv39x4 VPN[1] = %d, want 3", got)
	}
	if got := Sv39x4.VPN(gpa, 0); got != 7 {
		t.Errorf("Sv39x4 VPN[0] = %d, want 7", got)
	}
	// GPA bits 63:41 must be zero: no sign extension.
	for _, c := range []struct {
		gpa  VA
		want bool
	}{
		{0, true},
		{1<<41 - 1, true},
		{1 << 41, false},
		{^VA(0), false},
	} {
		if got := Sv39x4.Canonical(c.gpa); got != c.want {
			t.Errorf("Sv39x4.Canonical(%#x) = %v, want %v", uint64(c.gpa), got, c.want)
		}
	}
}

func TestCanonical(t *testing.T) {
	if !Sv39.Canonical(VA(0x3f_ffff_ffff)) {
		t.Error("highest positive Sv39 VA should be canonical")
	}
	if Sv39.Canonical(VA(0x40_0000_0000)) {
		t.Error("bit 38 set without sign extension must be non-canonical")
	}
	if !Sv39.Canonical(VA(0xffff_ffc0_0000_0000)) {
		t.Error("properly sign-extended negative VA should be canonical")
	}
	if !Bare.Canonical(VA(0xdead_beef_dead_beef)) {
		t.Error("Bare mode accepts every address")
	}
}

func TestAlignment(t *testing.T) {
	if AlignDown(0x1fff, 0x1000) != 0x1000 {
		t.Error("AlignDown failed")
	}
	if AlignUp(0x1001, 0x1000) != 0x2000 {
		t.Error("AlignUp failed")
	}
	if AlignUp(0x1000, 0x1000) != 0x1000 {
		t.Error("AlignUp of aligned value must be identity")
	}
	if !IsPow2(4096) || IsPow2(0) || IsPow2(12) {
		t.Error("IsPow2 wrong")
	}
}

func TestNAPOTRoundTrip(t *testing.T) {
	enc, err := NAPOTEncode(0x8000_0000, 0x1000)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	base, size := NAPOTDecode(enc)
	if base != 0x8000_0000 || size != 0x1000 {
		t.Errorf("decode = (%#x, %#x), want (0x80000000, 0x1000)", base, size)
	}
	if _, err := NAPOTEncode(0x1234, 0x1000); err == nil {
		t.Error("unaligned base must fail")
	}
	if _, err := NAPOTEncode(0x1000, 0x1001); err == nil {
		t.Error("non-power-of-two size must fail")
	}
}

// Property: NAPOT encode/decode round-trips for all valid (base,size) pairs.
func TestNAPOTRoundTripQuick(t *testing.T) {
	f := func(baseSeed uint32, sizeShift uint8) bool {
		shift := 3 + int(sizeShift%28) // sizes 8 B .. 1 GiB
		size := uint64(1) << shift
		base := (uint64(baseSeed) << 12) &^ (size - 1)
		enc, err := NAPOTEncode(base, size)
		if err != nil {
			return false
		}
		b, s := NAPOTDecode(enc)
		return b == base && s == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// napotDecodeLoop is the bit-by-bit decoder NAPOTDecode must agree with.
func napotDecodeLoop(pmpaddr uint64) (base, size uint64) {
	k := 0
	for v := pmpaddr; v&1 == 1; v >>= 1 {
		k++
	}
	return (pmpaddr &^ (uint64(1)<<k - 1)) << 2, uint64(8) << k
}

// Property: NAPOTDecode matches the trailing-ones loop on every value,
// including 0, all-ones and every run length of trailing ones.
func TestNAPOTDecodeMatchesLoop(t *testing.T) {
	check := func(v uint64) bool {
		b, s := NAPOTDecode(v)
		wb, ws := napotDecodeLoop(v)
		if b != wb || s != ws {
			t.Errorf("NAPOTDecode(%#x) = (%#x, %#x), loop gives (%#x, %#x)", v, b, s, wb, ws)
			return false
		}
		return true
	}
	check(0)
	check(^uint64(0))
	for k := 0; k < 64; k++ {
		ones := uint64(1)<<k - 1
		check(ones)
		check(ones | 0xdead_beef_0000_0000&^(uint64(1)<<k))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRange(t *testing.T) {
	r := Range{Base: 0x1000, Size: 0x2000}
	if !r.Contains(0x1000) || !r.Contains(0x2fff) || r.Contains(0x3000) || r.Contains(0xfff) {
		t.Error("Contains is wrong at boundaries")
	}
	if !r.Overlaps(Range{Base: 0x2fff, Size: 1}) {
		t.Error("single-byte overlap at the end missed")
	}
	if r.Overlaps(Range{Base: 0x3000, Size: 0x1000}) {
		t.Error("adjacent ranges must not overlap")
	}
	if !r.ContainsRange(Range{Base: 0x1800, Size: 0x800}) {
		t.Error("inner range must be contained")
	}
	if r.ContainsRange(Range{Base: 0x1800, Size: 0x2000}) {
		t.Error("straddling range must not be contained")
	}
}

// Property: AlignDown(x) ≤ x < AlignDown(x)+align and AlignUp ≥ x.
func TestAlignQuick(t *testing.T) {
	f := func(x uint64, shift uint8) bool {
		align := uint64(1) << (shift % 30)
		d := AlignDown(x, align)
		u := AlignUp(x, align)
		if d > x || x-d >= align {
			return false
		}
		if u < x && u != 0 { // u==0 only on overflow wrap
			return false
		}
		return IsAligned(d, align)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if PA(0x1234).String() != "PA(0x1234)" {
		t.Errorf("PA.String = %s", PA(0x1234))
	}
	if VA(0xabc).String() != "VA(0xabc)" {
		t.Errorf("VA.String = %s", VA(0xabc))
	}
	if GPA(0x99).String() != "GPA(0x99)" {
		t.Errorf("GPA.String = %s", GPA(0x99))
	}
	for m, want := range map[Mode]string{Bare: "Bare", Sv39: "Sv39", Sv48: "Sv48", Sv57: "Sv57", Sv39x4: "Sv39x4", Mode(9): "Mode(9)"} {
		if m.String() != want {
			t.Errorf("%d.String = %s, want %s", int(m), m, want)
		}
	}
	r := Range{Base: 0x1000, Size: 0x1000}
	if r.String() != "[0x1000, 0x2000)" {
		t.Errorf("Range.String = %s", r)
	}
}

func TestGPAAndLineHelpers(t *testing.T) {
	g := GPA(0x12345)
	if g.Frame() != 0x12 || g.Offset() != 0x345 {
		t.Errorf("GPA frame/offset: %#x %#x", g.Frame(), g.Offset())
	}
	if VA(0x2fff).PageBase() != 0x2000 {
		t.Error("VA.PageBase wrong")
	}
}

// napotCeilLoop is the doubling loop NAPOTCeil must agree with. It never
// terminates above 1<<63, where NAPOTCeil's domain ends too.
func napotCeilLoop(size uint64) uint64 {
	n := uint64(1)
	for n < size {
		n <<= 1
	}
	return n
}

func TestNAPOTCeilMatchesLoop(t *testing.T) {
	sizes := []uint64{0, 1, 160 * MiB, 192 * MiB, 320 * MiB}
	for k := 0; k < 64; k++ {
		p := uint64(1) << k
		sizes = append(sizes, p-1, p)
		if k < 63 {
			sizes = append(sizes, p+1)
		}
	}
	for _, size := range sizes {
		if got, want := NAPOTCeil(size), napotCeilLoop(size); got != want {
			t.Errorf("NAPOTCeil(%#x) = %#x, loop gives %#x", size, got, want)
		}
	}
	if got := NAPOTCeil(192 * MiB); got != 256*MiB {
		t.Errorf("NAPOTCeil(192 MiB) = %d MiB, want 256", got/MiB)
	}
}
