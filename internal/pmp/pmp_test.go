package pmp

import (
	"testing"
	"testing/quick"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

func TestSegmentGrant(t *testing.T) {
	u := NewSized(NumEntries)
	region := addr.Range{Base: 0x8000_0000, Size: 1 * addr.MiB}
	if err := u.SetSegment(0, region, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	if r := u.Check(0x8000_1000, 8, perm.Read, perm.S); !r.Allowed || r.Entry != 0 {
		t.Errorf("read inside segment should pass: %+v", r)
	}
	if r := u.Check(0x8000_1000, 8, perm.Write, perm.U); !r.Allowed {
		t.Errorf("write inside RW segment should pass: %+v", r)
	}
	if r := u.Check(0x8000_1000, 8, perm.Fetch, perm.S); r.Allowed {
		t.Errorf("fetch from RW (no X) segment must fail: %+v", r)
	}
	if r := u.Check(0x9000_0000, 8, perm.Read, perm.S); r.Allowed {
		t.Errorf("S-mode access outside all entries must fail: %+v", r)
	}
	if r := u.Check(0x9000_0000, 8, perm.Read, perm.M); !r.Allowed {
		t.Errorf("M-mode default-allow must pass: %+v", r)
	}
}

func TestPriority(t *testing.T) {
	u := NewSized(NumEntries)
	region := addr.Range{Base: 0x8000_0000, Size: 64 * addr.KiB}
	// Entry 0 denies, entry 1 grants the same region: entry 0 must win.
	if err := u.SetSegment(0, region, perm.None, false); err != nil {
		t.Fatal(err)
	}
	if err := u.SetSegment(1, region, perm.RWX, false); err != nil {
		t.Fatal(err)
	}
	if r := u.Check(0x8000_0000, 8, perm.Read, perm.S); r.Allowed || r.Entry != 0 {
		t.Errorf("lowest-numbered entry must win: %+v", r)
	}
	// Swap: grant first.
	u.Clear(0)
	u.SetSegment(0, region, perm.RWX, false)
	if r := u.Check(0x8000_0000, 8, perm.Read, perm.S); !r.Allowed {
		t.Errorf("grant in entry 0 should pass: %+v", r)
	}
}

func TestTOR(t *testing.T) {
	u := NewSized(NumEntries)
	// Entry 0: TOR top = 0x1000 → [0, 0x1000). Entry 1: TOR top = 0x3000 →
	// [0x1000, 0x3000).
	if err := u.SetTOR(0, 0x1000, perm.R, false); err != nil {
		t.Fatal(err)
	}
	if err := u.SetTOR(1, 0x3000, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	r0, ok := u.EntryRegion(0)
	if !ok || r0.Base != 0 || r0.Size != 0x1000 {
		t.Errorf("entry 0 region = %v", r0)
	}
	r1, ok := u.EntryRegion(1)
	if !ok || r1.Base != 0x1000 || r1.Size != 0x2000 {
		t.Errorf("entry 1 region = %v", r1)
	}
	if r := u.Check(0x800, 8, perm.Read, perm.U); !r.Allowed {
		t.Errorf("entry 0 read: %+v", r)
	}
	if r := u.Check(0x800, 8, perm.Write, perm.U); r.Allowed {
		t.Errorf("entry 0 is read-only: %+v", r)
	}
	if r := u.Check(0x2000, 8, perm.Write, perm.U); !r.Allowed {
		t.Errorf("entry 1 write: %+v", r)
	}
}

func TestNA4(t *testing.T) {
	u := NewSized(NumEntries)
	if err := u.SetSegment(0, addr.Range{Base: 0x1000, Size: 4}, perm.R, false); err != nil {
		t.Fatal(err)
	}
	if u.Entry(0).Mode() != NA4 {
		t.Errorf("4-byte region should use NA4, got %v", u.Entry(0).Mode())
	}
	if r := u.Check(0x1000, 4, perm.Read, perm.U); !r.Allowed {
		t.Errorf("NA4 read: %+v", r)
	}
	if r := u.Check(0x1004, 4, perm.Read, perm.U); r.Allowed {
		t.Errorf("outside NA4 region: %+v", r)
	}
}

func TestStraddlingAccessFails(t *testing.T) {
	u := NewSized(NumEntries)
	u.SetSegment(0, addr.Range{Base: 0x1000, Size: 0x1000}, perm.RWX, false)
	// 8-byte access straddling the segment end: matches (overlaps) but is
	// not contained → fail.
	if r := u.Check(0x1ffc, 8, perm.Read, perm.S); r.Allowed {
		t.Errorf("straddling access must fail: %+v", r)
	}
}

func TestLock(t *testing.T) {
	u := NewSized(NumEntries)
	region := addr.Range{Base: 0x8000_0000, Size: 4 * addr.KiB}
	if err := u.SetSegment(0, region, perm.R, true); err != nil {
		t.Fatal(err)
	}
	if !u.Entry(0).Locked() {
		t.Fatal("entry should be locked")
	}
	// Locked entries bind M-mode too.
	if r := u.Check(0x8000_0000, 8, perm.Write, perm.M); r.Allowed {
		t.Errorf("locked read-only entry must deny M-mode writes: %+v", r)
	}
	if r := u.Check(0x8000_0000, 8, perm.Read, perm.M); !r.Allowed {
		t.Errorf("locked entry still grants permitted access: %+v", r)
	}
	// And the entry cannot be reprogrammed.
	if err := u.SetSegment(0, region, perm.RWX, false); err == nil {
		t.Error("rewriting a locked entry must fail")
	}
	if err := u.Clear(0); err == nil {
		t.Error("clearing a locked entry must fail")
	}
}

func TestUnlockedEntryDoesNotBindM(t *testing.T) {
	u := NewSized(NumEntries)
	u.SetSegment(0, addr.Range{Base: 0x1000, Size: 0x1000}, perm.None, false)
	if r := u.Check(0x1000, 8, perm.Write, perm.M); !r.Allowed {
		t.Errorf("unlocked entry must not constrain M-mode: %+v", r)
	}
	if r := u.Check(0x1000, 8, perm.Write, perm.S); r.Allowed {
		t.Errorf("same entry must constrain S-mode: %+v", r)
	}
}

func TestCfgRoundTrip(t *testing.T) {
	c := MakeCfg(perm.RX, NAPOT, true, true)
	e := Entry{Cfg: c}
	if e.Perm() != perm.RX || e.Mode() != NAPOT || !e.Locked() || !e.Table() {
		t.Errorf("cfg round trip failed: perm=%v mode=%v locked=%v table=%v",
			e.Perm(), e.Mode(), e.Locked(), e.Table())
	}
}

func TestEntryIndexValidation(t *testing.T) {
	u := NewSized(NumEntries)
	if err := u.SetSegment(-1, addr.Range{Base: 0, Size: 4096}, perm.R, false); err == nil {
		t.Error("negative index must fail")
	}
	if err := u.SetSegment(NumEntries, addr.Range{Base: 0, Size: 4096}, perm.R, false); err == nil {
		t.Error("index 16 must fail")
	}
	if err := u.SetTOR(99, 0x1000, perm.R, false); err == nil {
		t.Error("SetTOR out of range must fail")
	}
	if err := u.Clear(99); err == nil {
		t.Error("Clear out of range must fail")
	}
}

// Property: every address inside a programmed NAPOT segment passes a read
// check when the permission includes R, and every address outside all
// entries fails for S-mode.
func TestSegmentCoverageQuick(t *testing.T) {
	u := NewSized(NumEntries)
	region := addr.Range{Base: 0x4000_0000, Size: 16 * addr.MiB}
	if err := u.SetSegment(0, region, perm.R, false); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32) bool {
		inside := region.Base + addr.PA(uint64(off)%(region.Size-8))
		if !u.Check(inside, 8, perm.Read, perm.S).Allowed {
			return false
		}
		outside := region.End() + addr.PA(uint64(off)%addr.GiB)
		return !u.Check(outside, 8, perm.Read, perm.S).Allowed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EntryRegion(SetSegment(region)) round-trips for power-of-two
// regions.
func TestSegmentRegionRoundTripQuick(t *testing.T) {
	f := func(baseSeed uint32, sizeShift uint8) bool {
		shift := 12 + int(sizeShift%16) // 4 KiB .. 128 MiB
		size := uint64(1) << shift
		base := (uint64(baseSeed) << 12) &^ (size - 1)
		u := NewSized(NumEntries)
		if err := u.SetSegment(3, addr.Range{Base: addr.PA(base), Size: size}, perm.RWX, false); err != nil {
			return false
		}
		r, ok := u.EntryRegion(3)
		return ok && uint64(r.Base) == base && r.Size == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
