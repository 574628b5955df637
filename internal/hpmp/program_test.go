package hpmp

import (
	"fmt"
	"math/rand"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
	"hpmp/internal/pmp"
	"hpmp/internal/pmpt"
)

// refEntryRegion decodes entry i from the raw registers, as every check
// did before the PMP unit decoded entries when they are written. It is the
// reference the decoded table must equal after every write.
func refEntryRegion(u *pmp.Unit, i int) (addr.Range, bool) {
	e := u.Entry(i)
	switch e.Mode() {
	case pmp.Off:
		return addr.Range{}, false
	case pmp.NA4:
		return addr.Range{Base: addr.PA(e.Addr << 2), Size: 4}, true
	case pmp.NAPOT:
		base, size := addr.NAPOTDecode(e.Addr)
		return addr.Range{Base: addr.PA(base), Size: size}, true
	case pmp.TOR:
		var lo uint64
		if i > 0 {
			lo = u.Entry(i-1).Addr << 2
		}
		hi := e.Addr << 2
		if hi <= lo {
			return addr.Range{}, false
		}
		return addr.Range{Base: addr.PA(lo), Size: hi - lo}, true
	}
	return addr.Range{}, false
}

// refMatch is the per-check match over refEntryRegion.
func refMatch(u *pmp.Unit, pa addr.PA, size uint64) int {
	acc := addr.Range{Base: pa, Size: size}
	for i := 0; i < u.NumEntries(); i++ {
		if r, ok := refEntryRegion(u, i); ok && r.Overlaps(acc) {
			return i
		}
	}
	return -1
}

// programSpace is the physical span the program's regions fall in: 64 KiB,
// so segments, TOR ranges and table regions overlap each other often.
const programSpace = 64 * addr.KiB

// programCoverage counts the situations a program must reach for the
// differential to mean anything.
type programCoverage struct {
	torSuccessor int // writes to entry i that moved TOR entry i+1's region
	lockedRefuse int // writes refused because the entry was locked
	tableWrites  int // successful SetTableMode calls
}

// programStep applies the register write that op, a and b select to c and
// describes it. Entry i is op>>4 mod the bank size; op&15 picks the write:
// a segment, a TOR top, a pmp or hpmp Clear, a table-mode pair, or a
// segment or TOR entry that locks itself.
func programStep(c *Checker, op, a, b byte) (string, error) {
	i := int(op>>4) % c.PMP.NumEntries()
	p := perm.Perm(b>>4) & perm.RWX
	segment := func(locked bool) (string, error) {
		size := uint64(4) << (b & 15)
		base := (uint64(a) << 8) &^ (size - 1)
		r := addr.Range{Base: addr.PA(base), Size: size}
		return fmt.Sprintf("SetSegment(%d, %v, %v, locked=%v)", i, r, p, locked), c.SetSegment(i, r, p, locked)
	}
	tor := func(locked bool) (string, error) {
		top := addr.PA(uint64(a) << 8)
		return fmt.Sprintf("SetTOR(%d, %#x, %v, locked=%v)", i, uint64(top), p, locked), c.PMP.SetTOR(i, top, p, locked)
	}
	switch op & 15 {
	case 0, 1, 2, 3:
		return segment(false)
	case 4, 5, 6, 7:
		return tor(false)
	case 8, 9:
		return fmt.Sprintf("pmp.Clear(%d)", i), c.PMP.Clear(i)
	case 10, 11:
		return fmt.Sprintf("Clear(%d)", i), c.Clear(i)
	case 12, 13, 14:
		size := uint64(4*addr.KiB) << (b & 3)
		r := addr.Range{Base: addr.PA((uint64(a) << 8) &^ (size - 1)), Size: size}
		root := addr.PA(uint64(b>>2) << addr.PageShift)
		mode := pmpt.Mode2Level
		if b&0x80 != 0 {
			mode = pmpt.Mode3Level
		}
		return fmt.Sprintf("SetTableMode(%d, %v, %#x, %d)", i, r, uint64(root), mode), c.SetTableMode(i, r, root, mode)
	default:
		if b&1 == 0 {
			return segment(true)
		}
		return tor(true)
	}
}

// runProgram applies steps (three bytes each) to a fresh n-entry checker
// and, after every write, requires EntryRegion and Match to equal the
// per-check decode for every entry and at every region boundary, and a
// check that matches no table-mode entry to equal pmp.Unit.Check.
func runProgram(t *testing.T, n int, steps []byte, cov *programCoverage) {
	c := NewSized(nil, n)
	u := c.PMP
	for s := 0; s+3 <= len(steps); s += 3 {
		i := int(steps[s]>>4) % n
		var nextR addr.Range
		var nextOK bool
		if i+1 < n {
			nextR, nextOK = refEntryRegion(u, i+1)
		}
		wasLocked := u.Entry(i).Locked()
		desc, err := programStep(c, steps[s], steps[s+1], steps[s+2])
		if err == nil && i+1 < n && u.Entry(i+1).Mode() == pmp.TOR {
			if r, ok := refEntryRegion(u, i+1); r != nextR || ok != nextOK {
				cov.torSuccessor++
			}
		}
		if err != nil && wasLocked {
			cov.lockedRefuse++
		}
		if err == nil && steps[s]&15 >= 12 && steps[s]&15 <= 14 {
			cov.tableWrites++
		}
		for j := 0; j < n; j++ {
			gotR, gotOK := u.EntryRegion(j)
			wantR, wantOK := refEntryRegion(u, j)
			if gotR != wantR || gotOK != wantOK {
				t.Fatalf("step %d %s (err %v): EntryRegion(%d) = %v, %v; per-check decode %v, %v",
					s/3, desc, err, j, gotR, gotOK, wantR, wantOK)
			}
		}
		probes := []addr.PA{0, programSpace - 1}
		for j := 0; j < n; j++ {
			if r, ok := refEntryRegion(u, j); ok {
				probes = append(probes, r.Base-1, r.Base, r.End()-1, r.End())
			}
		}
		for pa := addr.PA(0); pa < programSpace; pa += 1024 {
			probes = append(probes, pa+4)
		}
		for pi, pa := range probes {
			for _, size := range []uint64{1, 4, 8} {
				m := u.Match(pa, size)
				if want := refMatch(u, pa, size); m != want {
					t.Fatalf("step %d %s (err %v): Match(%#x, %d) = %d, per-check decode %d",
						s/3, desc, err, uint64(pa), size, m, want)
				}
				// Outside table mode an HPMP check is a base PMP check.
				if m >= 0 && u.Entry(m).Table() {
					continue
				}
				k, priv := perm.Access(pi%3), []perm.Priv{perm.U, perm.S, perm.M}[pi/3%3]
				got, cerr := c.Check(pa, size, k, priv, 0)
				if want := u.Check(pa, size, k, priv); cerr != nil || got.Allowed != want.Allowed || got.Entry != want.Entry {
					t.Fatalf("step %d %s (err %v): Check(%#x, %d, %v, %v) = %+v, %v; base PMP %+v",
						s/3, desc, err, uint64(pa), size, k, priv, got, cerr, want)
				}
			}
		}
	}
}

// TestDecodedEntriesNeverStale runs seeded random programs of SetSegment,
// SetTOR, Clear, SetTableMode and locked-entry writes on small banks, and
// after every write requires the decoded table to equal the per-check
// decode. The programs must reach writes that move a TOR successor's
// region, writes refused by a lock, and table-mode pairs.
func TestDecodedEntriesNeverStale(t *testing.T) {
	var cov programCoverage
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := make([]byte, 3*60)
		rng.Read(steps)
		runProgram(t, 2+int(seed%7), steps, &cov)
	}
	if cov.torSuccessor == 0 || cov.lockedRefuse == 0 || cov.tableWrites == 0 {
		t.Errorf("programs reached %+v, want every count above 0", cov)
	}
}

// TestWriteRedecodesTORSuccessor: a TOR entry's range starts at its
// predecessor's address, so writing entry 0 must move entry 1's range.
func TestWriteRedecodesTORSuccessor(t *testing.T) {
	u := pmp.NewSized(pmp.NumEntries)
	if err := u.SetTOR(1, 0x3000, perm.RW, false); err != nil {
		t.Fatal(err)
	}
	if r, ok := u.EntryRegion(1); !ok || r != (addr.Range{Base: 0, Size: 0x3000}) {
		t.Fatalf("TOR entry 1 over a zero predecessor = %v, %v; want [0, 0x3000)", r, ok)
	}
	if err := u.SetTOR(0, 0x1000, perm.R, false); err != nil {
		t.Fatal(err)
	}
	if r, ok := u.EntryRegion(1); !ok || r != (addr.Range{Base: 0x1000, Size: 0x2000}) {
		t.Errorf("after entry 0's top moved to 0x1000, entry 1 = %v, %v; want [0x1000, 0x3000)", r, ok)
	}
	if got := u.Match(0x800, 4); got != 0 {
		t.Errorf("Match(0x800) = %d, want entry 0", got)
	}
	// A predecessor at or above the top empties the range: entry 1 no
	// longer matches anything.
	if err := u.SetSegment(0, addr.Range{Base: 0x4000, Size: 0x1000}, perm.R, false); err != nil {
		t.Fatal(err)
	}
	if r, ok := u.EntryRegion(1); ok {
		t.Errorf("entry 1 below its predecessor's address = %v, want no region", r)
	}
	if got := u.Match(0x2000, 4); got != -1 {
		t.Errorf("Match(0x2000) = %d, want -1", got)
	}
}

// FuzzPMPProgram is TestDecodedEntriesNeverStale over arbitrary programs:
// the first byte sizes the bank (2 to 17 entries), and every three bytes
// after it are one write.
func FuzzPMPProgram(f *testing.F) {
	f.Add([]byte{4, 0x14, 0x30, 0x20, 0x04, 0x10, 0x20})
	f.Add([]byte{14, 0x0c, 0x01, 0x01, 0x0a, 0, 0, 0x1f, 0x10, 0x31, 0x12, 0x40, 0x05})
	f.Add([]byte{0, 0x0f, 0x80, 0x72, 0x0f, 0x80, 0x73, 0x00, 0x80, 0x3c})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runProgram(t, 2+int(data[0]%16), data[1:], &programCoverage{})
	})
}
