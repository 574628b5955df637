// Package workloads contains functional re-implementations of every
// application suite the paper evaluates: RV8 (§8.3), GAP (§8.3),
// FunctionBench and the serverless image chain (§8.4). Each workload is an
// ordinary algorithm whose data lives in simulated memory, accessed through
// kernel.Env — so TLB behaviour, walk counts, and cache locality emerge
// from the computation itself rather than from a scripted trace.
//
// Sizes are scaled down from the paper (which runs minutes of FPGA time per
// benchmark) so a full sweep stays in CI range; DESIGN.md documents the
// substitution. The *relative* behaviour between isolation modes is
// preserved because it is driven by walk frequency, not footprint alone.
package workloads

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/kernel"
)

// Workload is one runnable benchmark program.
type Workload interface {
	Name() string
	// Run executes the workload in the environment and returns an
	// application-specific checksum for functional verification, and the
	// environment's Err(): a checksum computed after a failed access is
	// not one.
	Run(e *kernel.Env) (uint64, error)
}

// The arrays below live in simulated memory. Their accesses go through
// kernel.Env, which keeps the first failed access (kernel.Env.Err); an
// out-of-range index is a program bug and panics.

// U64Array is a uint64 array in simulated memory.
type U64Array struct {
	e    *kernel.Env
	base addr.VA
	n    int
}

// NewU64Array allocates an n-element array.
func NewU64Array(e *kernel.Env, n int) *U64Array {
	return &U64Array{e: e, base: e.Alloc(uint64(n) * 8), n: n}
}

// Len returns the element count.
func (a *U64Array) Len() int { return a.n }

func (a *U64Array) addr(i int) addr.VA {
	checkIndex(i, a.n)
	return a.base + addr.VA(i*8)
}

// Get loads element i (one timed memory access plus index arithmetic).
func (a *U64Array) Get(i int) uint64 {
	a.e.Compute(2)
	return a.e.Load64(a.addr(i))
}

// Set stores element i.
func (a *U64Array) Set(i int, v uint64) {
	a.e.Compute(2)
	a.e.Store64(a.addr(i), v)
}

// SetRange stores vals into elements [lo, lo+len(vals)), in index order,
// each one a Set.
func (a *U64Array) SetRange(lo int, vals []uint64) {
	for i, v := range vals {
		a.Set(lo+i, v)
	}
}

// Fill stores v into every element, in index order, each one a Set.
func (a *U64Array) Fill(v uint64) {
	for i := range a.n {
		a.Set(i, v)
	}
}

// U32Array is a uint32 array in simulated memory.
type U32Array struct {
	e    *kernel.Env
	base addr.VA
	n    int
}

// NewU32Array allocates an n-element array.
func NewU32Array(e *kernel.Env, n int) *U32Array {
	return &U32Array{e: e, base: e.Alloc(uint64(n) * 4), n: n}
}

func (a *U32Array) addr(i int) addr.VA {
	checkIndex(i, a.n)
	return a.base + addr.VA(i*4)
}

// Get loads element i.
func (a *U32Array) Get(i int) uint32 {
	a.e.Compute(2)
	return a.e.Load32(a.addr(i))
}

// Set stores element i.
func (a *U32Array) Set(i int, v uint32) {
	a.e.Compute(2)
	a.e.Store32(a.addr(i), v)
}

// SetRange stores vals into elements [lo, lo+len(vals)), in index order,
// each one a Set.
func (a *U32Array) SetRange(lo int, vals []uint32) {
	for i, v := range vals {
		a.Set(lo+i, v)
	}
}

// Fill stores v into every element, in index order, each one a Set.
func (a *U32Array) Fill(v uint32) {
	for i := range a.n {
		a.Set(i, v)
	}
}

// ByteArray is a byte buffer in simulated memory.
type ByteArray struct {
	e    *kernel.Env
	base addr.VA
	n    int
}

// NewByteArray allocates an n-byte buffer.
func NewByteArray(e *kernel.Env, n int) *ByteArray {
	return &ByteArray{e: e, base: e.Alloc(uint64(n)), n: n}
}

// Len returns the byte count.
func (b *ByteArray) Len() int { return b.n }

// Base returns the buffer's base VA.
func (b *ByteArray) Base() addr.VA { return b.base }

// Get loads byte i.
func (b *ByteArray) Get(i int) byte {
	checkIndex(i, b.n)
	b.e.Compute(2)
	return b.e.Load8(b.base + addr.VA(i))
}

// Set stores byte i.
func (b *ByteArray) Set(i int, v byte) {
	checkIndex(i, b.n)
	b.e.Compute(2)
	b.e.Store8(b.base+addr.VA(i), v)
}

// Fill writes data into the buffer starting at off (bulk, line-at-a-time
// timed accesses).
func (b *ByteArray) Fill(off int, data []byte) {
	checkSpan(off, len(data), b.n)
	b.e.StoreBytes(b.base+addr.VA(off), data)
}

// Read copies n bytes starting at off out of the buffer.
func (b *ByteArray) Read(off, n int) []byte {
	checkSpan(off, n, b.n)
	return b.e.LoadBytes(b.base+addr.VA(off), uint64(n))
}

// checkIndex panics unless 0 <= i < n.
func checkIndex(i, n int) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("workloads: index %d out of [0,%d)", i, n))
	}
}

// checkSpan panics unless [off, off+size) lies within [0, n).
func checkSpan(off, size, n int) {
	if off < 0 || size < 0 || off+size > n {
		panic(fmt.Sprintf("workloads: span [%d,%d) out of [0,%d)", off, off+size, n))
	}
}

// rng is a small deterministic xorshift64* generator for workload inputs.
type rng uint64

func newRNG(seed uint64) *rng {
	r := rng(seed | 1)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
