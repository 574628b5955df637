// Package phys implements the simulated physical memory: a sparse store of
// 4 KiB frames allocated on first write. Page tables, permission tables, and
// all workload data live here, so a "memory reference" in the simulator is a
// read or write of this store (timed separately by the cache/DRAM models).
package phys

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hpmp/internal/addr"
)

// leafBits is log2 of the frames one leaf of the frame table covers: 512
// frames, 2 MiB of memory, so a leaf is itself one 4 KiB array of pointers.
const (
	leafBits   = 9
	leafFrames = 1 << leafBits
)

// frameLeaf maps the frames of one 2 MiB span to their contents (nil until
// first written).
type frameLeaf [leafFrames]*[addr.PageSize]byte

// Memory is a sparse simulated physical memory. The zero value is not usable;
// call New.
type Memory struct {
	size uint64
	// dir is the root of a two-level radix frame table indexed by frame
	// number: dir[fn>>leafBits][fn%leafFrames]. Leaves and frames are both
	// allocated on first write, so untouched memory costs one nil pointer
	// per 2 MiB, and a lookup is two indexed loads with no hashing.
	dir []*frameLeaf
	// Touched counts frames materialized so far (for footprint reporting).
	touched uint64
}

// New creates a memory of the given size in bytes (rounded up to a page).
// Accesses beyond the size fault.
func New(size uint64) *Memory {
	size = addr.AlignUp(size, addr.PageSize)
	frames := size >> addr.PageShift
	return &Memory{
		size: size,
		dir:  make([]*frameLeaf, (frames+leafFrames-1)>>leafBits),
	}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// TouchedFrames returns how many distinct frames have been materialized.
// Only writes materialize a frame: reads and ZeroPage of an untouched frame
// leave it untouched.
func (m *Memory) TouchedFrames() uint64 { return m.touched }

// InBounds reports whether the n-byte access at pa stays inside memory.
func (m *Memory) InBounds(pa addr.PA, n uint64) bool {
	return uint64(pa) < m.size && uint64(pa)+n <= m.size
}

// frame returns the frame holding pa for writing, materializing it and its
// leaf on first write. pa must be in bounds.
func (m *Memory) frame(pa addr.PA) *[addr.PageSize]byte {
	fn := pa.Frame()
	leaf := m.dir[fn>>leafBits]
	if leaf == nil {
		leaf = new(frameLeaf)
		m.dir[fn>>leafBits] = leaf
	}
	s := &leaf[fn&(leafFrames-1)]
	if *s == nil {
		*s = new([addr.PageSize]byte)
		m.touched++
	}
	return *s
}

// zeroFrame is what every untouched frame reads as. Nothing writes it.
var zeroFrame [addr.PageSize]byte

// peek returns the frame holding pa for reading: the frame itself, or the
// shared zero frame while it is untouched. It allocates neither the frame
// nor its leaf. pa must be in bounds.
func (m *Memory) peek(pa addr.PA) *[addr.PageSize]byte {
	fn := pa.Frame()
	if leaf := m.dir[fn>>leafBits]; leaf != nil {
		if f := leaf[fn&(leafFrames-1)]; f != nil {
			return f
		}
	}
	return &zeroFrame
}

// ErrBounds is returned for accesses outside the physical address space.
type ErrBounds struct {
	PA addr.PA
	N  uint64
}

func (e *ErrBounds) Error() string {
	return fmt.Sprintf("phys: access %d bytes at %v out of bounds", e.N, e.PA)
}

// Read copies len(dst) bytes starting at pa.
func (m *Memory) Read(pa addr.PA, dst []byte) error {
	if !m.InBounds(pa, uint64(len(dst))) {
		return &ErrBounds{PA: pa, N: uint64(len(dst))}
	}
	for len(dst) > 0 {
		f := m.peek(pa)
		off := pa.Offset()
		n := copy(dst, f[off:])
		dst = dst[n:]
		pa += addr.PA(n)
	}
	return nil
}

// Write copies src into memory starting at pa.
func (m *Memory) Write(pa addr.PA, src []byte) error {
	if !m.InBounds(pa, uint64(len(src))) {
		return &ErrBounds{PA: pa, N: uint64(len(src))}
	}
	for len(src) > 0 {
		f := m.frame(pa)
		off := pa.Offset()
		n := copy(f[off:], src)
		src = src[n:]
		pa += addr.PA(n)
	}
	return nil
}

// Read64 loads a little-endian 64-bit word. pa must be 8-byte aligned, as
// the RISC-V walkers require.
func (m *Memory) Read64(pa addr.PA) (uint64, error) {
	if !addr.IsAligned(uint64(pa), 8) {
		return 0, fmt.Errorf("phys: misaligned 8-byte read at %v", pa)
	}
	if !m.InBounds(pa, 8) {
		return 0, &ErrBounds{PA: pa, N: 8}
	}
	f := m.peek(pa)
	off := pa.Offset()
	return binary.LittleEndian.Uint64(f[off : off+8]), nil
}

// Write64 stores a little-endian 64-bit word at an 8-byte-aligned address.
func (m *Memory) Write64(pa addr.PA, v uint64) error {
	if !addr.IsAligned(uint64(pa), 8) {
		return fmt.Errorf("phys: misaligned 8-byte write at %v", pa)
	}
	if !m.InBounds(pa, 8) {
		return &ErrBounds{PA: pa, N: 8}
	}
	f := m.frame(pa)
	off := pa.Offset()
	binary.LittleEndian.PutUint64(f[off:off+8], v)
	return nil
}

// Fill64 stores v into n consecutive little-endian 64-bit words starting
// at an 8-byte-aligned pa. The words must lie in one 4 KiB frame, which is
// looked up once; table builders use it to write a run of identical
// entries.
func (m *Memory) Fill64(pa addr.PA, v uint64, n int) error {
	if !addr.IsAligned(uint64(pa), 8) {
		return fmt.Errorf("phys: misaligned 8-byte fill at %v", pa)
	}
	size := uint64(n) * 8
	if n < 0 || pa.Offset()+size > addr.PageSize {
		return fmt.Errorf("phys: fill of %d words at %v crosses a frame", n, pa)
	}
	if !m.InBounds(pa, size) {
		return &ErrBounds{PA: pa, N: size}
	}
	if n == 0 {
		return nil
	}
	w := m.frame(pa)[pa.Offset() : pa.Offset()+size]
	for i := 0; i < len(w); i += 8 {
		binary.LittleEndian.PutUint64(w[i:], v)
	}
	return nil
}

// Read32 loads a little-endian 32-bit word (4-byte aligned).
func (m *Memory) Read32(pa addr.PA) (uint32, error) {
	if !addr.IsAligned(uint64(pa), 4) {
		return 0, fmt.Errorf("phys: misaligned 4-byte read at %v", pa)
	}
	if !m.InBounds(pa, 4) {
		return 0, &ErrBounds{PA: pa, N: 4}
	}
	f := m.peek(pa)
	off := pa.Offset()
	return binary.LittleEndian.Uint32(f[off : off+4]), nil
}

// Write32 stores a little-endian 32-bit word (4-byte aligned).
func (m *Memory) Write32(pa addr.PA, v uint32) error {
	if !addr.IsAligned(uint64(pa), 4) {
		return fmt.Errorf("phys: misaligned 4-byte write at %v", pa)
	}
	if !m.InBounds(pa, 4) {
		return &ErrBounds{PA: pa, N: 4}
	}
	f := m.frame(pa)
	off := pa.Offset()
	binary.LittleEndian.PutUint32(f[off:off+4], v)
	return nil
}

// Read8 loads one byte.
func (m *Memory) Read8(pa addr.PA) (byte, error) {
	if !m.InBounds(pa, 1) {
		return 0, &ErrBounds{PA: pa, N: 1}
	}
	return m.peek(pa)[pa.Offset()], nil
}

// Write8 stores one byte.
func (m *Memory) Write8(pa addr.PA, v byte) error {
	if !m.InBounds(pa, 1) {
		return &ErrBounds{PA: pa, N: 1}
	}
	m.frame(pa)[pa.Offset()] = v
	return nil
}

// ZeroPage clears the 4 KiB page containing pa (pa must be page aligned).
// The kernel model uses it when handing out fresh frames, and the monitor
// when it scrubs a released region. An untouched frame already reads as
// zero, so it stays untouched.
func (m *Memory) ZeroPage(pa addr.PA) error {
	if !addr.IsAligned(uint64(pa), addr.PageSize) {
		return fmt.Errorf("phys: ZeroPage at unaligned %v", pa)
	}
	if !m.InBounds(pa, addr.PageSize) {
		return &ErrBounds{PA: pa, N: addr.PageSize}
	}
	if f := m.peek(pa); f != &zeroFrame {
		*f = [addr.PageSize]byte{}
	}
	return nil
}

// FrameAllocator hands out physical frames from a range, either sequentially
// (contiguous) or with a deterministic stride pattern that scatters frames
// (to model a fragmented physical layout, §8.8).
type FrameAllocator struct {
	region    addr.Range
	next      uint64 // frame index within region
	scatter   bool
	order     []uint64 // scattered mode's permutation, shared read-only
	allocated uint64
	freeList  []addr.PA
	// freeSet guards against double frees, a classic allocator corruption.
	freeSet map[addr.PA]bool
}

// NewFrameAllocator creates an allocator over region. When scatter is true,
// frames are handed out in a deterministic pseudo-random permutation so that
// consecutively allocated frames are far apart in physical memory.
func NewFrameAllocator(region addr.Range, scatter bool) *FrameAllocator {
	a := &FrameAllocator{region: region, scatter: scatter}
	if scatter {
		a.order = scatterOrder(region.Size / addr.PageSize)
	}
	return a
}

// scatterMemo holds the last scattered permutation built. A permutation
// depends only on its frame count, and every boot of one machine size asks
// for the same one. Keeping one entry bounds what a long-running daemon
// holds across machine sizes. The slice is shared and never written after
// it is built.
var scatterMemo struct {
	sync.Mutex
	order []uint64
}

// scatterOrder returns the deterministic permutation of n frames.
func scatterOrder(n uint64) []uint64 {
	scatterMemo.Lock()
	order := scatterMemo.order
	scatterMemo.Unlock()
	if uint64(len(order)) == n {
		return order
	}
	order = make([]uint64, n)
	for i := range order {
		order[i] = uint64(i)
	}
	// Deterministic Fisher-Yates with an xorshift generator.
	s := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := s % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	scatterMemo.Lock()
	scatterMemo.order = order
	scatterMemo.Unlock()
	return order
}

// Region returns the range the allocator draws from.
func (a *FrameAllocator) Region() addr.Range { return a.region }

// Allocated returns the count of live frames.
func (a *FrameAllocator) Allocated() uint64 { return a.allocated }

// HighWater returns the first address the sequential allocator has not yet
// reached (undefined for scattered allocators, which return the region
// end).
func (a *FrameAllocator) HighWater() addr.PA {
	if a.scatter {
		return a.region.End()
	}
	return a.region.Base + addr.PA(a.next*addr.PageSize)
}

// Alloc returns the base address of a fresh 4 KiB frame, or an error when
// the region is exhausted.
func (a *FrameAllocator) Alloc() (addr.PA, error) {
	if n := len(a.freeList); n > 0 {
		pa := a.freeList[n-1]
		a.freeList = a.freeList[:n-1]
		delete(a.freeSet, pa)
		a.allocated++
		return pa, nil
	}
	total := a.region.Size / addr.PageSize
	if a.next >= total {
		return 0, fmt.Errorf("phys: frame allocator exhausted (%d frames)", total)
	}
	idx := a.next
	if a.scatter {
		idx = a.order[a.next]
	}
	a.next++
	a.allocated++
	return a.region.Base + addr.PA(idx*addr.PageSize), nil
}

// AllocN returns n frames (not necessarily contiguous).
func (a *FrameAllocator) AllocN(n int) ([]addr.PA, error) {
	out := make([]addr.PA, 0, n)
	for i := 0; i < n; i++ {
		pa, err := a.Alloc()
		if err != nil {
			return nil, err
		}
		out = append(out, pa)
	}
	return out, nil
}

// Free returns a frame to the allocator. Double frees and frames outside
// the region panic: both are kernel bugs that would silently corrupt the
// pools.
func (a *FrameAllocator) Free(pa addr.PA) {
	if !a.region.Contains(pa) {
		panic(fmt.Sprintf("phys: freeing frame %v outside region %v", pa, a.region))
	}
	if a.freeSet == nil {
		a.freeSet = make(map[addr.PA]bool)
	}
	if a.freeSet[pa] {
		panic(fmt.Sprintf("phys: double free of frame %v", pa))
	}
	a.freeSet[pa] = true
	a.freeList = append(a.freeList, pa)
	a.allocated--
}
