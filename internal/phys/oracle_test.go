package phys

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"hpmp/internal/addr"
)

// The spans of one leaf and of one directory page of the sector table.
const (
	leafSpan = leafSectors * sectorSize
	pageSpan = pageLeaves * leafSpan
)

// oracleSize is the memory the differential runs over: a full directory
// page and a partial second one, whose two full leaves and partial third
// end memory, so that sector, frame, leaf and directory-page boundaries,
// the last page and the bounds past it all occur.
const oracleSize = pageSpan + 2*leafSpan + 22*addr.PageSize

// refMem is the reference model: a flat byte slice, plus the set of 4 KiB
// frames any write has covered, which is what TouchedFrames must count.
type refMem struct {
	b       []byte
	written map[uint64]bool
}

// refPool recycles references: zeroing a fresh 16 MiB slice for every
// fuzz input would be most of the fuzzer's time.
var refPool sync.Pool

func newRefMem() *refMem {
	if r, ok := refPool.Get().(*refMem); ok {
		return r
	}
	return &refMem{b: make([]byte, oracleSize), written: make(map[uint64]bool)}
}

// release clears the frames r wrote, the only bytes that can be nonzero,
// and returns r to the pool.
func (r *refMem) release() {
	for f := range r.written {
		clear(r.b[f<<addr.PageShift : (f+1)<<addr.PageShift])
	}
	clear(r.written)
	refPool.Put(r)
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
// memory, the start of the second directory page) moved by a small signed
// delta, or any address in the first 600 KiB.
func opAt(kind, where, delta byte, n uint16, v uint64) memOp {
	var pa uint64
	switch where % 6 {
	case 0:
		pa = uint64(where/6) * sectorSize
	case 1:
		pa = uint64(where/6) * 7 * addr.PageSize
	case 2:
		pa = uint64(where/6%3) * leafSpan
	case 3:
		pa = oracleSize - uint64(where/6%4)*addr.PageSize
	case 4:
		pa = uint64(where) * 2339
	default:
		pa = pageSpan - addr.PageSize + uint64(where/6%3)*addr.PageSize
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
		// Half the time one of three words, so that whole frames share
		// a pattern sector and partial fills write into shared frames.
		if op.n&2 == 0 {
			op.v %= 3
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

// sameContents fails t unless m holds exactly the reference's bytes: every
// frame a write covered holds the reference's bytes, and no other frame
// has a sector, so every other byte reads zero, as it does in the
// reference.
func sameContents(t *testing.T, m *Memory, r *refMem) {
	t.Helper()
	buf := make([]byte, addr.PageSize)
	for f := range r.written {
		if err := m.Read(addr.PA(f<<addr.PageShift), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, r.b[f<<addr.PageShift:(f+1)<<addr.PageShift]) {
			t.Fatalf("frame %#x differs from the reference", f<<addr.PageShift)
		}
	}
	for p, pg := range m.dir {
		for l := 0; pg != nil && l < pageLeaves; l++ {
			for i := 0; pg[l] != nil && i < leafSectors; i++ {
				s := pg[l][i]
				if f := uint64((p*pageLeaves+l)*leafSectors+i) / frameSectors; s != nil && !r.written[f] {
					t.Fatalf("frame %#x has a sector, but the reference never wrote it", f<<addr.PageShift)
				}
			}
		}
	}
}

// rawOp is one operation in FuzzMemory's 13-byte encoding: kind, address
// choice, address delta, a 16-bit count and a 64-bit value (see opAt).
type rawOp struct {
	kind, where, delta byte
	n                  uint16
	v                  uint64
}

// encodeOps returns ops in FuzzMemory's encoding.
func encodeOps(ops ...rawOp) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, o.kind, o.where, o.delta)
		b = binary.LittleEndian.AppendUint16(b, o.n)
		b = binary.LittleEndian.AppendUint64(b, o.v)
	}
	return b
}

// runOps runs an encoded op stream through a fresh Memory and the
// reference, then compares every byte.
func runOps(t *testing.T, data []byte) {
	t.Helper()
	m, r := New(oracleSize), newRefMem()
	defer r.release()
	for ; len(data) >= 13; data = data[13:] {
		stepMem(t, m, r, opAt(data[0], data[1], data[2], binary.LittleEndian.Uint16(data[3:]), binary.LittleEndian.Uint64(data[5:])))
	}
	sameContents(t, m, r)
}

// Address choices for opAt: the frames at 0 and at 7 pages, the last frame
// of memory, and the frames before, at and after the start of the second
// directory page.
const (
	atFrame0   = 1
	atFrame7   = 7
	atLast     = 9
	beforePage = 5
	atPage     = 11
	afterPage  = 17
)

// Ops with these counts fill a whole frame with the value modulo 3 (n
// even, n&2 clear), read or write one page (Read, Write) or zero an
// aligned page (ZeroPage).
const (
	wholeFill = 0
	onePage   = addr.PageSize
	aligned   = 1
)

// fill0and7 fills the frames at 0 and at 7 pages with word 1, so that both
// share one pattern sector.
var fill0and7 = []rawOp{{8, atFrame0, 0, wholeFill, 1}, {8, atFrame7, 0, wholeFill, 1}}

// sharingStreams pins each case of pattern sharing: two frames filled
// with one word, then a write, a refill, a partial fill, a byte write or a
// ZeroPage of one of them, which must leave the other intact; and writes
// and fills in the second directory page.
var sharingStreams = []struct {
	name string
	data []byte
}{
	{"write-one-of-two", encodeOps(append(fill0and7,
		rawOp{3, atFrame0, 16, 0, 0xdead}, rawOp{2, atFrame7, 16, 0, 0}, rawOp{0, atFrame7, 0, onePage, 0})...)},
	{"refill-another-word", encodeOps(append(fill0and7,
		rawOp{8, atFrame0, 0, wholeFill, 2}, rawOp{0, atFrame7, 0, onePage, 0}, rawOp{8, atFrame7, 0, wholeFill, 2})...)},
	{"partial-fill-and-byte", encodeOps(append(fill0and7,
		rawOp{8, atFrame0, 8, 7, 7}, rawOp{7, atFrame7, 3, 0, 0x55},
		rawOp{0, atFrame0, 0, onePage, 0}, rawOp{0, atFrame7, 0, onePage, 0})...)},
	{"zeropage-shared", encodeOps(append(fill0and7,
		rawOp{9, atFrame0, 0, aligned, 0}, rawOp{0, atFrame7, 0, onePage, 0},
		rawOp{8, atFrame7, 0, wholeFill, 0}, rawOp{3, atFrame0, 8, 0, 5}, rawOp{9, atFrame7, 0, aligned, 0})...)},
	{"second-directory-page", encodeOps(
		rawOp{3, atPage, 0, 0, 0x1234}, rawOp{1, beforePage, 0xf0, 2 * onePage, 3},
		rawOp{8, afterPage, 0, wholeFill, 2}, rawOp{8, atLast, 0, wholeFill, 2}, rawOp{7, atLast, 5, 0, 1},
		rawOp{0, afterPage, 0, onePage, 0})},
}

// TestMemoryMatchesFlatReference drives seeded random streams of every
// accessor through Memory and a flat byte slice, at addresses on and around
// sector, frame, leaf and directory-page boundaries, and compares results,
// errors, the bytes near each operation and TouchedFrames after every
// step. Whole-frame fills of a few repeated words make frames that share
// a pattern sector, which later writes, fills and ZeroPage must unshare.
// sharingStreams first pins each case of that sharing.
func TestMemoryMatchesFlatReference(t *testing.T) {
	for _, st := range sharingStreams {
		t.Run(st.name, func(t *testing.T) { runOps(t, st.data) })
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, r := New(oracleSize), newRefMem()
		for i := 0; i < 3000; i++ {
			stepMem(t, m, r, opAt(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), uint16(rng.Intn(1<<16)), rng.Uint64()))
		}
		sameContents(t, m, r)
		r.release()
	}
}

// FuzzMemory runs the same differential over an arbitrary op stream in
// rawOp's 13-byte encoding, seeded with sharingStreams.
func FuzzMemory(f *testing.F) {
	f.Add(encodeOps(
		rawOp{8, atFrame0, 0, wholeFill, 0x0807060504030201}, // a whole-frame fill at 0
		rawOp{3, 6, 0, 0, 0x0909090909090909},                // a word at the second sector
		rawOp{1, 8, 0xf0, 1024, 0x0101010101010101},          // 1 KiB across the first leaf boundary
		rawOp{9, atFrame0, 0, aligned, 0},                    // ZeroPage of the filled frame
	))
	f.Add(encodeOps(rawOp{5, 3, 0xfc, 0, 0x04030201})) // the last word of memory
	for _, st := range sharingStreams {
		f.Add(st.data)
	}
	f.Fuzz(runOps)
}
