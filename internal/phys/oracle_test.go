package phys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"hpmp/internal/addr"
)

// oracleSize is the memory the differential runs over: two full leaves of
// the sector table and a partial third, so that sector, frame and leaf
// boundaries, the last page and the bounds past it all occur.
const oracleSize = 2*leafSectors*sectorSize + 22*addr.PageSize

// refMem is the reference model: a flat byte slice, plus the set of 4 KiB
// frames any write has covered, which is what TouchedFrames must count.
type refMem struct {
	b       []byte
	written map[uint64]bool
}

func newRefMem() *refMem {
	return &refMem{b: make([]byte, oracleSize), written: make(map[uint64]bool)}
}

func (r *refMem) inBounds(pa, n uint64) bool { return pa < oracleSize && pa+n <= oracleSize }

// touch records that [pa, pa+n) was written.
func (r *refMem) touch(pa, n uint64) {
	for f := pa >> addr.PageShift; n > 0 && f <= (pa+n-1)>>addr.PageShift; f++ {
		r.written[f] = true
	}
}

// memOp is one operation of the differential: kind picks the accessor, pa
// the address, n the byte or word count and v the value written.
type memOp struct {
	kind byte
	pa   uint64
	n    int
	v    uint64
}

const memOpKinds = 10

// opAt builds an operation from a few raw values: the address is a
// boundary of the sector table (a sector, a frame, a leaf, the end of
// memory) moved by a small signed delta, or any address.
func opAt(kind, where, delta byte, n uint16, v uint64) memOp {
	var pa uint64
	switch where % 5 {
	case 0:
		pa = uint64(where/5) * sectorSize
	case 1:
		pa = uint64(where/5) * 7 * addr.PageSize
	case 2:
		pa = uint64(where/5%3) * leafSectors * sectorSize
	case 3:
		pa = oracleSize - uint64(where/5%4)*addr.PageSize
	default:
		pa = uint64(where) * 2339 % oracleSize
	}
	pa += uint64(int64(int8(delta)))
	return memOp{kind: kind % memOpKinds, pa: pa, n: int(n), v: v}
}

// stepMem applies op to m and to the reference, and fails t when the two
// disagree on the error, on a value read, on the bytes around the
// operation, or on TouchedFrames.
func stepMem(t *testing.T, m *Memory, r *refMem, op memOp) {
	t.Helper()
	pa := addr.PA(op.pa)
	var err, want error
	var got, exp uint64
	// misaligned and bounds are the reference's two checks, in the order
	// every accessor makes them.
	misaligned := func(n uint64) error {
		if uint64(pa)%n != 0 {
			return errors.New("misaligned")
		}
		return nil
	}
	bounds := func(n uint64) error {
		if !r.inBounds(uint64(pa), n) {
			return &ErrBounds{PA: pa, N: n}
		}
		return nil
	}
	switch op.kind {
	case 0: // Read
		n := op.n % (2*addr.PageSize + 700)
		buf := make([]byte, n)
		err, want = m.Read(pa, buf), bounds(uint64(n))
		if want == nil && !bytes.Equal(buf, r.b[op.pa:op.pa+uint64(n)]) {
			t.Fatalf("Read(%v, %d) returned bytes that differ from the reference", pa, n)
		}
	case 1: // Write
		n := op.n % (2*addr.PageSize + 700)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(op.v>>(i%8*8)) + byte(i)
		}
		err, want = m.Write(pa, src), bounds(uint64(n))
		if want == nil {
			copy(r.b[op.pa:], src)
			r.touch(op.pa, uint64(n))
		}
	case 2: // Read64
		got, err = m.Read64(pa)
		if want = misaligned(8); want == nil {
			if want = bounds(8); want == nil {
				exp = binary.LittleEndian.Uint64(r.b[op.pa:])
			}
		}
	case 3: // Write64
		err = m.Write64(pa, op.v)
		if want = misaligned(8); want == nil {
			if want = bounds(8); want == nil {
				binary.LittleEndian.PutUint64(r.b[op.pa:], op.v)
				r.touch(op.pa, 8)
			}
		}
	case 4: // Read32
		var v uint32
		v, err = m.Read32(pa)
		got = uint64(v)
		if want = misaligned(4); want == nil {
			if want = bounds(4); want == nil {
				exp = uint64(binary.LittleEndian.Uint32(r.b[op.pa:]))
			}
		}
	case 5: // Write32
		err = m.Write32(pa, uint32(op.v))
		if want = misaligned(4); want == nil {
			if want = bounds(4); want == nil {
				binary.LittleEndian.PutUint32(r.b[op.pa:], uint32(op.v))
				r.touch(op.pa, 4)
			}
		}
	case 6: // Read8
		var v byte
		v, err = m.Read8(pa)
		got = uint64(v)
		if want = bounds(1); want == nil {
			exp = uint64(r.b[op.pa])
		}
	case 7: // Write8
		err = m.Write8(pa, byte(op.v))
		if want = bounds(1); want == nil {
			r.b[op.pa] = byte(op.v)
			r.touch(op.pa, 1)
		}
	case 8: // Fill64: half the time the whole frame from its base
		words := op.n % (addr.PageSize/8 + 2)
		if op.n&1 == 0 {
			pa &^= addr.PageSize - 1
			words = addr.PageSize / 8
		}
		err = m.Fill64(pa, op.v, words)
		size := uint64(words) * 8
		if want = misaligned(8); want == nil && pa.Offset()+size > addr.PageSize {
			want = errors.New("crosses a frame")
		}
		if want == nil {
			if want = bounds(size); want == nil {
				for i := uint64(0); i < size; i += 8 {
					binary.LittleEndian.PutUint64(r.b[uint64(pa)+i:], op.v)
				}
				r.touch(uint64(pa), size)
			}
		}
	case 9: // ZeroPage, usually of an aligned page
		if op.n%4 != 0 {
			pa &^= addr.PageSize - 1
		}
		err = m.ZeroPage(pa)
		if want = misaligned(addr.PageSize); want == nil {
			if want = bounds(addr.PageSize); want == nil {
				clear(r.b[pa : uint64(pa)+addr.PageSize])
			}
		}
	}
	if (err == nil) != (want == nil) {
		t.Fatalf("op %d at %v (n=%d): error %v, reference %v", op.kind, pa, op.n, err, want)
	}
	var eb *ErrBounds
	if _, isBounds := want.(*ErrBounds); isBounds && !errors.As(err, &eb) {
		t.Fatalf("op %d at %v (n=%d): error %v, want *ErrBounds", op.kind, pa, op.n, err)
	}
	if got != exp {
		t.Fatalf("op %d at %v: read %#x, reference %#x", op.kind, pa, got, exp)
	}
	if n := uint64(len(r.written)); m.TouchedFrames() != n {
		t.Fatalf("op %d at %v (n=%d): TouchedFrames = %d, reference wrote %d frames", op.kind, pa, op.n, m.TouchedFrames(), n)
	}
	// The bytes around the operation, across the neighbouring sectors.
	at := min(uint64(pa), oracleSize)
	lo := at &^ (addr.PageSize - 1)
	if lo >= addr.PageSize {
		lo -= addr.PageSize
	}
	hi := min(at+uint64(op.n)+2*addr.PageSize, oracleSize)
	win := make([]byte, hi-lo)
	if err := m.Read(addr.PA(lo), win); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(win, r.b[lo:hi]) {
		t.Fatalf("op %d at %v (n=%d): memory in [%#x, %#x) differs from the reference", op.kind, pa, op.n, lo, hi)
	}
}

// sameContents fails t unless m holds exactly the reference's bytes.
func sameContents(t *testing.T, m *Memory, r *refMem) {
	t.Helper()
	all := make([]byte, oracleSize)
	if err := m.Read(0, all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, r.b) {
		t.Fatal("memory differs from the reference")
	}
}

// TestMemoryMatchesFlatReference drives seeded random streams of every
// accessor through Memory and a flat byte slice, at addresses on and around
// sector, frame and leaf boundaries, and compares results, errors, the
// bytes near each operation and TouchedFrames after every step.
func TestMemoryMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, r := New(oracleSize), newRefMem()
		for i := 0; i < 3000; i++ {
			stepMem(t, m, r, opAt(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), uint16(rng.Intn(1<<16)), rng.Uint64()))
		}
		sameContents(t, m, r)
	}
}

// FuzzMemory runs the same differential over an arbitrary op stream, 13
// bytes per operation: kind, address choice, address delta, a 16-bit count
// and a 64-bit value.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{
		8, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, // a whole-frame fill at 0
		3, 5, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9, // a word at the second sector
		1, 7, 0xf0, 0, 4, 1, 1, 1, 1, 1, 1, 1, 1, // 1 KiB across the first leaf boundary
		9, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, // ZeroPage of the filled frame
	})
	f.Add([]byte{5, 3, 0xfc, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0}) // the last word of memory
	f.Fuzz(func(t *testing.T, data []byte) {
		m, r := New(oracleSize), newRefMem()
		for ; len(data) >= 13; data = data[13:] {
			stepMem(t, m, r, opAt(data[0], data[1], data[2], binary.LittleEndian.Uint16(data[3:]), binary.LittleEndian.Uint64(data[5:])))
		}
		sameContents(t, m, r)
	})
}
