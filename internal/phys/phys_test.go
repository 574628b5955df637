package phys

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"hpmp/internal/addr"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1 * addr.MiB)
	data := []byte("hello physical memory")
	if err := m.Write(0x1ff8, data); err != nil { // crosses a page boundary
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(0x1ff8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("round trip failed: %q", got)
	}
}

func TestWord64(t *testing.T) {
	m := New(64 * addr.KiB)
	if err := m.Write64(0x100, 0xdeadbeefcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read64(0x100)
	if err != nil || v != 0xdeadbeefcafebabe {
		t.Errorf("Read64 = %#x, %v", v, err)
	}
	if _, err := m.Read64(0x101); err == nil {
		t.Error("misaligned Read64 must fail")
	}
	if err := m.Write64(0x103, 1); err == nil {
		t.Error("misaligned Write64 must fail")
	}
}

func TestWord32(t *testing.T) {
	m := New(64 * addr.KiB)
	if err := m.Write32(0x200, 0x12345678); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read32(0x200)
	if err != nil || v != 0x12345678 {
		t.Errorf("Read32 = %#x, %v", v, err)
	}
	if _, err := m.Read32(0x201); err == nil {
		t.Error("misaligned Read32 must fail")
	}
}

func TestBounds(t *testing.T) {
	m := New(8 * addr.KiB)
	if err := m.Write(addr.PA(8*addr.KiB-4), make([]byte, 8)); err == nil {
		t.Error("write past the end must fail")
	}
	var eb *ErrBounds
	err := m.Read(addr.PA(100*addr.KiB), make([]byte, 1))
	if err == nil {
		t.Fatal("out of bounds read must fail")
	}
	if ok := asErrBounds(err, &eb); !ok {
		t.Errorf("want *ErrBounds, got %T", err)
	}
	if _, err := m.Read8(addr.PA(9 * addr.KiB)); err == nil {
		t.Error("Read8 out of bounds must fail")
	}
}

func asErrBounds(err error, out **ErrBounds) bool {
	e, ok := err.(*ErrBounds)
	if ok {
		*out = e
	}
	return ok
}

func TestZeroPage(t *testing.T) {
	m := New(64 * addr.KiB)
	m.Write64(0x3000, 0xffffffffffffffff)
	if err := m.ZeroPage(0x3000); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read64(0x3000); v != 0 {
		t.Error("ZeroPage did not clear")
	}
	if err := m.ZeroPage(0x3008); err == nil {
		t.Error("unaligned ZeroPage must fail")
	}
}

func TestTouchedFrames(t *testing.T) {
	m := New(1 * addr.MiB)
	m.Write8(0x0, 1)
	m.Write8(0x10, 1)   // same frame
	m.Write8(0x5000, 1) // second frame
	m.Read8(0x9000)     // third frame (reads also materialize)
	if got := m.TouchedFrames(); got != 3 {
		t.Errorf("TouchedFrames = %d, want 3", got)
	}
}

// A fresh frame is materialized zeroed by ZeroPage and counted once; a
// ZeroPage of a frame already holding data clears it without counting it
// again.
func TestZeroPageFreshFrame(t *testing.T) {
	m := New(64 * addr.KiB)
	if err := m.ZeroPage(0x2000); err != nil {
		t.Fatal(err)
	}
	if got := m.TouchedFrames(); got != 1 {
		t.Errorf("TouchedFrames after ZeroPage of a fresh frame = %d, want 1", got)
	}
	buf := make([]byte, addr.PageSize)
	if err := m.Read(0x2000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, addr.PageSize)) {
		t.Error("fresh frame is not zero")
	}
	if err := m.Write(0x2000, bytes.Repeat([]byte{0xa5}, addr.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroPage(0x2000); err != nil {
		t.Fatal(err)
	}
	if err := m.Read(0x2000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, addr.PageSize)) {
		t.Error("ZeroPage left data in a touched frame")
	}
	if got := m.TouchedFrames(); got != 1 {
		t.Errorf("TouchedFrames after re-zeroing = %d, want 1", got)
	}
}

// The frame table's leaves each cover 2 MiB. Memory sizes that are not a
// multiple of that end in a partial leaf; the last page, accesses straddling
// a leaf boundary, and the bounds at and past Size must all behave as in a
// flat memory.
func TestFrameTableEdges(t *testing.T) {
	for _, size := range []uint64{
		addr.PageSize,                   // one page, one partial leaf
		2*addr.MiB + addr.PageSize,      // one full leaf plus one page
		5*addr.MiB + 3*addr.PageSize,    // partial last leaf
		4*addr.MiB - addr.PageSize + 10, // rounded up to a page by New
	} {
		m := New(size)
		end := m.Size()
		if end%addr.PageSize != 0 || end < size {
			t.Fatalf("New(%d).Size() = %d", size, end)
		}
		last := addr.PA(end - addr.PageSize)
		if err := m.Write64(last+addr.PageSize-8, 0x1122334455667788); err != nil {
			t.Fatalf("size %d: last word: %v", size, err)
		}
		if v, err := m.Read64(last + addr.PageSize - 8); err != nil || v != 0x1122334455667788 {
			t.Errorf("size %d: last word reads %#x, %v", size, v, err)
		}
		if err := m.ZeroPage(last); err != nil {
			t.Errorf("size %d: ZeroPage of the last page: %v", size, err)
		}
		// At and past Size: every accessor reports *ErrBounds.
		var eb *ErrBounds
		for _, err := range []error{
			m.Write8(addr.PA(end), 1),
			m.Write64(addr.PA(end), 1),
			m.Read(addr.PA(end-4), make([]byte, 8)),
			m.Write(addr.PA(end+addr.PageSize), []byte{1}),
			m.ZeroPage(addr.PA(end)),
		} {
			if !errors.As(err, &eb) {
				t.Errorf("size %d: out-of-bounds access returned %v, want *ErrBounds", size, err)
			}
		}
		if _, err := m.Read64(addr.PA(end)); !errors.As(err, &eb) {
			t.Errorf("size %d: Read64 at Size returned %v, want *ErrBounds", size, err)
		}
		if _, err := m.Read8(addr.PA(end + 2*addr.MiB)); !errors.As(err, &eb) {
			t.Errorf("size %d: Read8 a leaf past Size returned %v, want *ErrBounds", size, err)
		}
	}

	// A read and a write straddling the 2 MiB leaf boundary.
	m := New(5 * addr.MiB)
	data := make([]byte, 3*addr.PageSize)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	at := addr.PA(2*addr.MiB - addr.PageSize - 100)
	if err := m.Write(at, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(at, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read across the leaf boundary differs from the write")
	}
	if b, _ := m.Read8(2 * addr.MiB); b != data[addr.PageSize+100] {
		t.Errorf("first byte of the second leaf = %#x, want %#x", b, data[addr.PageSize+100])
	}
	if n := m.TouchedFrames(); n != 4 {
		t.Errorf("TouchedFrames = %d, want 4 (the write spans four frames)", n)
	}
}

// Property: a 64-bit word written at any aligned in-bounds address reads
// back identically.
func TestWord64Quick(t *testing.T) {
	m := New(4 * addr.MiB)
	f := func(off uint32, v uint64) bool {
		pa := addr.PA(uint64(off) % (4 * addr.MiB / 8) * 8)
		if err := m.Write64(pa, v); err != nil {
			return false
		}
		got, err := m.Read64(pa)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameAllocatorSequential(t *testing.T) {
	a := NewFrameAllocator(addr.Range{Base: 0x10000, Size: 4 * addr.PageSize}, false)
	var got []addr.PA
	for i := 0; i < 4; i++ {
		pa, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pa)
	}
	for i, pa := range got {
		want := addr.PA(0x10000 + i*addr.PageSize)
		if pa != want {
			t.Errorf("frame %d = %v, want %v", i, pa, want)
		}
	}
	if _, err := a.Alloc(); err == nil {
		t.Error("exhausted allocator must fail")
	}
	a.Free(got[2])
	pa, err := a.Alloc()
	if err != nil || pa != got[2] {
		t.Errorf("free list reuse failed: %v %v", pa, err)
	}
}

func TestFrameAllocatorScatter(t *testing.T) {
	region := addr.Range{Base: 0, Size: 256 * addr.PageSize}
	a := NewFrameAllocator(region, true)
	seen := make(map[addr.PA]bool)
	adjacent := 0
	var prev addr.PA
	for i := 0; i < 256; i++ {
		pa, err := a.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if seen[pa] {
			t.Fatalf("duplicate frame %v", pa)
		}
		if !region.Contains(pa) {
			t.Fatalf("frame %v outside region", pa)
		}
		seen[pa] = true
		if i > 0 && (pa == prev+addr.PageSize || prev == pa+addr.PageSize) {
			adjacent++
		}
		prev = pa
	}
	if adjacent > 32 {
		t.Errorf("scattered allocator produced %d adjacent pairs; want few", adjacent)
	}
}

func TestFrameAllocatorAllocN(t *testing.T) {
	a := NewFrameAllocator(addr.Range{Base: 0, Size: 8 * addr.PageSize}, false)
	frames, err := a.AllocN(8)
	if err != nil || len(frames) != 8 {
		t.Fatalf("AllocN: %v %v", frames, err)
	}
	if a.Allocated() != 8 {
		t.Errorf("Allocated = %d", a.Allocated())
	}
	if _, err := a.AllocN(1); err == nil {
		t.Error("over-allocation must fail")
	}
}

func TestFreeGuards(t *testing.T) {
	a := NewFrameAllocator(addr.Range{Base: 0x10000, Size: 4 * addr.PageSize}, false)
	pa, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	a.Free(pa)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double free must panic")
			}
		}()
		a.Free(pa)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("foreign frame free must panic")
			}
		}()
		a.Free(0x9999_0000)
	}()
	// The freed frame is reusable exactly once.
	got, err := a.Alloc()
	if err != nil || got != pa {
		t.Errorf("realloc = %v, %v", got, err)
	}
}
