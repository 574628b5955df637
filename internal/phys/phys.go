// Package phys implements the simulated physical memory: a sparse store of
// 512-byte sectors allocated on first write. Page tables, permission tables,
// and all workload data live here, so a "memory reference" in the simulator
// is a read or write of this store (timed separately by the cache/DRAM
// models).
package phys

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hpmp/internal/addr"
)

// The store allocates memory a sector at a time: writes scattered over many
// pages (the key-value store's small objects, one PTE in a fresh table
// page) leave most of each 4 KiB frame zero, and an untouched sector costs
// only a nil pointer. A leaf of the sector table is 512 pointers, so it
// covers 256 KiB of memory and is itself one 4 KiB array. A directory page
// is 64 leaf pointers, covering 16 MiB.
const (
	sectorBits   = 9
	sectorSize   = 1 << sectorBits
	sectorMask   = sectorSize - 1
	frameSectors = addr.PageSize / sectorSize
	leafBits     = 9
	leafSectors  = 1 << leafBits
	pageBits     = 6
	pageLeaves   = 1 << pageBits
)

// sector holds 512 bytes of memory contents.
type sector [sectorSize]byte

// sectorLeaf maps the sectors of one 256 KiB span to their contents (nil
// until first written). A frame's sectors are consecutive slots of one leaf.
type sectorLeaf [leafSectors]*sector

// dirPage maps the leaves of one 16 MiB span (nil until first written).
type dirPage [pageLeaves]*sectorLeaf

// Memory is a sparse simulated physical memory. The zero value is not usable;
// call New.
type Memory struct {
	size uint64
	// dir is the root of a three-level radix sector table indexed by
	// sector number: dir[sn>>15][sn>>9%64][sn%512]. Pages, leaves and
	// sectors are all allocated on first write, so untouched memory costs
	// one nil pointer per 16 MiB, and a lookup is three indexed loads with
	// no hashing.
	dir []*dirPage
	// patterns interns the pattern sectors of this memory by the word they
	// repeat. A whole-frame Fill64 points all eight slots of its frame at
	// one pattern sector, so a frame is shared exactly when its first two
	// slots hold the same pointer: a frame's own sectors are distinct
	// objects. Nothing writes a pattern sector after it is built; a write
	// into a shared frame first gives the frame its own copy (unshare).
	// Patterns are per Memory because machines run concurrently.
	patterns map[uint64]*sector
	// touched counts frames with at least one sector (for footprint
	// reporting).
	touched uint64
}

// New creates a memory of the given size in bytes (rounded up to a page).
// Accesses beyond the size fault.
func New(size uint64) *Memory {
	size = addr.AlignUp(size, addr.PageSize)
	span := uint64(sectorSize) << (leafBits + pageBits)
	return &Memory{
		size: size,
		dir:  make([]*dirPage, (size+span-1)/span),
	}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// TouchedFrames returns how many distinct 4 KiB frames have been
// materialized: a frame counts once its first sector is, and a shared
// frame counts once. Only writes materialize memory: reads and ZeroPage of
// an untouched frame leave it untouched.
func (m *Memory) TouchedFrames() uint64 { return m.touched }

// InBounds reports whether the n-byte access at pa stays inside memory.
func (m *Memory) InBounds(pa addr.PA, n uint64) bool {
	return uint64(pa) < m.size && uint64(pa)+n <= m.size
}

// leaf returns the leaf holding sector sn, or nil while nothing in it has
// been written.
func (m *Memory) leaf(sn uint64) *sectorLeaf {
	if pg := m.dir[sn>>(leafBits+pageBits)]; pg != nil {
		return pg[sn>>leafBits&(pageLeaves-1)]
	}
	return nil
}

// frameSlots returns the leaf slots of the 8 sectors of the frame holding
// pa, materializing the directory page and the leaf on first write. pa
// must be in bounds.
func (m *Memory) frameSlots(pa addr.PA) *[frameSectors]*sector {
	sn := uint64(pa) >> sectorBits
	pg := m.dir[sn>>(leafBits+pageBits)]
	if pg == nil {
		pg = new(dirPage)
		m.dir[sn>>(leafBits+pageBits)] = pg
	}
	leaf := pg[sn>>leafBits&(pageLeaves-1)]
	if leaf == nil {
		leaf = new(sectorLeaf)
		pg[sn>>leafBits&(pageLeaves-1)] = leaf
	}
	first := sn & (leafSectors - 1) &^ (frameSectors - 1)
	return (*[frameSectors]*sector)(leaf[first : first+frameSectors])
}

// sec returns the sector holding pa for writing, materializing it, its
// leaf and its directory page on first write, and unsharing its frame. pa
// must be in bounds.
func (m *Memory) sec(pa addr.PA) *sector {
	slots := m.frameSlots(pa)
	s := &slots[uint64(pa)>>sectorBits&(frameSectors-1)]
	if *s == nil {
		if !hasSector(slots) {
			m.touched++
		}
		*s = new(sector)
	} else if shared(slots) {
		unshare(slots)
	}
	return *s
}

// hasSector reports whether any of a frame's sector slots is materialized.
func hasSector(slots *[frameSectors]*sector) bool {
	for _, s := range slots {
		if s != nil {
			return true
		}
	}
	return false
}

// shared reports whether a frame's slots all point at one pattern sector.
func shared(slots *[frameSectors]*sector) bool {
	return slots[0] != nil && slots[0] == slots[1]
}

// unshare gives a shared frame eight sectors of its own, in one allocation,
// holding the pattern it shared.
func unshare(slots *[frameSectors]*sector) {
	block := new([frameSectors]sector)
	for i := range slots {
		block[i] = *slots[i]
		slots[i] = &block[i]
	}
}

// wholeFrame prepares a write that covers the whole frame at the
// page-aligned pa: a frame with no sector yet gets all eight in one
// allocation (a page copy), which is one heap object where
// sector-at-a-time would make eight. pa must be in bounds.
func (m *Memory) wholeFrame(pa addr.PA) {
	slots := m.frameSlots(pa)
	if hasSector(slots) {
		return
	}
	block := new([frameSectors]sector)
	for i := range slots {
		slots[i] = &block[i]
	}
	m.touched++
}

// share points every slot of the frame at the page-aligned pa at the
// pattern sector repeating v, dropping any sectors of its own. pa must be
// in bounds.
func (m *Memory) share(pa addr.PA, v uint64) {
	p := m.patterns[v]
	if p == nil {
		p = new(sector)
		for i := 0; i < sectorSize; i += 8 {
			binary.LittleEndian.PutUint64(p[i:], v)
		}
		if m.patterns == nil {
			m.patterns = make(map[uint64]*sector)
		}
		m.patterns[v] = p
	}
	slots := m.frameSlots(pa)
	if !hasSector(slots) {
		m.touched++
	}
	for i := range slots {
		slots[i] = p
	}
}

// zeroSector is what every untouched sector reads as. Nothing writes it.
var zeroSector sector

// peek returns the sector holding pa for reading: the sector itself, or the
// shared zero sector while it is untouched. It allocates neither the sector
// nor its leaf. pa must be in bounds.
func (m *Memory) peek(pa addr.PA) *sector {
	sn := uint64(pa) >> sectorBits
	if leaf := m.leaf(sn); leaf != nil {
		if s := leaf[sn&(leafSectors-1)]; s != nil {
			return s
		}
	}
	return &zeroSector
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
		n := copy(dst, m.peek(pa)[pa&sectorMask:])
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
		if pa.Offset() == 0 && len(src) >= addr.PageSize {
			m.wholeFrame(pa)
		}
		n := copy(m.sec(pa)[pa&sectorMask:], src)
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
	s := m.peek(pa)
	off := pa & sectorMask
	return binary.LittleEndian.Uint64(s[off : off+8]), nil
}

// Write64 stores a little-endian 64-bit word at an 8-byte-aligned address.
func (m *Memory) Write64(pa addr.PA, v uint64) error {
	if !addr.IsAligned(uint64(pa), 8) {
		return fmt.Errorf("phys: misaligned 8-byte write at %v", pa)
	}
	if !m.InBounds(pa, 8) {
		return &ErrBounds{PA: pa, N: 8}
	}
	s := m.sec(pa)
	off := pa & sectorMask
	binary.LittleEndian.PutUint64(s[off:off+8], v)
	return nil
}

// Fill64 stores v into n consecutive little-endian 64-bit words starting
// at an 8-byte-aligned pa. The words must lie in one 4 KiB frame; table
// builders use it to write a run of identical entries. A fill of a whole
// frame allocates nothing past the first frame filled with v: the frame
// shares v's pattern sector until it is next written.
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
	if size == addr.PageSize {
		m.share(pa, v)
		return nil
	}
	for size > 0 {
		off := uint64(pa & sectorMask)
		w := m.sec(pa)[off:min(off+size, sectorSize)]
		for i := 0; i < len(w); i += 8 {
			binary.LittleEndian.PutUint64(w[i:], v)
		}
		size -= uint64(len(w))
		pa += addr.PA(len(w))
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
	s := m.peek(pa)
	off := pa & sectorMask
	return binary.LittleEndian.Uint32(s[off : off+4]), nil
}

// Write32 stores a little-endian 32-bit word (4-byte aligned).
func (m *Memory) Write32(pa addr.PA, v uint32) error {
	if !addr.IsAligned(uint64(pa), 4) {
		return fmt.Errorf("phys: misaligned 4-byte write at %v", pa)
	}
	if !m.InBounds(pa, 4) {
		return &ErrBounds{PA: pa, N: 4}
	}
	s := m.sec(pa)
	off := pa & sectorMask
	binary.LittleEndian.PutUint32(s[off:off+4], v)
	return nil
}

// Read8 loads one byte.
func (m *Memory) Read8(pa addr.PA) (byte, error) {
	if !m.InBounds(pa, 1) {
		return 0, &ErrBounds{PA: pa, N: 1}
	}
	return m.peek(pa)[pa&sectorMask], nil
}

// Write8 stores one byte.
func (m *Memory) Write8(pa addr.PA, v byte) error {
	if !m.InBounds(pa, 1) {
		return &ErrBounds{PA: pa, N: 1}
	}
	m.sec(pa)[pa&sectorMask] = v
	return nil
}

// ZeroPage clears the 4 KiB page containing pa (pa must be page aligned).
// The kernel model uses it when handing out fresh frames, and the monitor
// when it scrubs a released region. An untouched sector already reads as
// zero, so only the sectors that exist are cleared, and an untouched frame
// stays untouched. A shared frame is pointed at the zero pattern instead:
// clearing the sector it shares would clear every frame sharing it.
func (m *Memory) ZeroPage(pa addr.PA) error {
	if !addr.IsAligned(uint64(pa), addr.PageSize) {
		return fmt.Errorf("phys: ZeroPage at unaligned %v", pa)
	}
	if !m.InBounds(pa, addr.PageSize) {
		return &ErrBounds{PA: pa, N: addr.PageSize}
	}
	if s := m.peek(pa); s != &zeroSector && s == m.peek(pa+sectorSize) {
		m.share(pa, 0)
		return nil
	}
	for off := addr.PA(0); off < addr.PageSize; off += sectorSize {
		if s := m.peek(pa + off); s != &zeroSector {
			*s = sector{}
		}
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
