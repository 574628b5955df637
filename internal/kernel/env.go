package kernel

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cache"
	"hpmp/internal/cpu"
	"hpmp/internal/mmu"
	"hpmp/internal/perm"
)

// Env is the workload-facing view of one process: functional loads and
// stores that go through the full simulated pipeline (TLB → walk → HPMP →
// caches → DRAM) and land in simulated physical memory. Workloads in
// internal/workloads are ordinary Go algorithms written against this API,
// so their locality and footprint drive the translation machinery the same
// way real programs drive real hardware.
type Env struct {
	K *Kernel
	P *Process

	// err is the first failed access (see Err).
	err error

	// Reusable scratch for batched block runs (Block/RunBlock): allocated
	// once per Env and recycled, so converted workload loops stay
	// allocation-light no matter how many blocks they submit.
	blockOps []cpu.BlockRef
	blockRes []mmu.Result
}

// BlockMax is the largest block Env's batched helpers submit at once; it
// bounds the scratch footprint while still amortizing per-call overhead
// across hundreds of references.
const BlockMax = 256

// Block returns scratch ops/results slices of length n (reused across
// calls — the previous block's contents are overwritten). Callers fill the
// ops and hand both slices to RunBlock.
func (e *Env) Block(n int) ([]cpu.BlockRef, []mmu.Result) {
	if cap(e.blockOps) < n {
		e.blockOps = make([]cpu.BlockRef, n)
		e.blockRes = make([]mmu.Result, n)
	}
	return e.blockOps[:n], e.blockRes[:n]
}

// RunBlock executes ops as one batched block at user privilege with the
// same demand-paging fault handling as the scalar Load/Store helpers,
// writing per-op results into out, and returns Err(). out is valid only
// when that is nil; once an access has failed, a block runs nothing. Ops
// within a block must touch disjoint locations (see Kernel.accessBlock);
// the converted loops in internal/workloads all do.
func (e *Env) RunBlock(ops []cpu.BlockRef, out []mmu.Result) error {
	if e.err == nil {
		e.Fail(e.K.accessBlock(ops, out, perm.U))
	}
	return e.err
}

// NewEnv returns the environment of a process (switching to it if needed).
func (k *Kernel) NewEnv(p *Process) (*Env, error) {
	if k.current != p.PID {
		if err := k.SwitchTo(p.PID); err != nil {
			return nil, err
		}
	}
	return &Env{K: k, P: p}, nil
}

// Compute retires n user instructions.
func (e *Env) Compute(n uint64) { e.K.Mach.Core.Compute(n) }

// Now returns the current core cycle.
func (e *Env) Now() uint64 { return e.K.Mach.Core.Now }

// Err returns the error of the environment's first failed access, or nil.
// A failed access ends the simulated program's useful work: from then on
// every load reads zero, and every access simulates nothing and charges no
// cycles. Workloads therefore run to their end without checking each access
// and return Err() when they finish.
func (e *Env) Err() error { return e.err }

// ErrOr returns Err() if an access has failed, else err. After a failed
// access the loads read zero, so a check on loaded data that trips then
// reports the access, not the data.
func (e *Env) ErrOr(err error) error {
	if e.err != nil {
		return e.err
	}
	return err
}

// Fail records err as the environment's failure unless one is recorded
// already (a nil err records nothing), and reports whether the environment
// has failed.
func (e *Env) Fail(err error) bool {
	if e.err == nil {
		e.err = err
	}
	return e.err != nil
}

// access runs one timed user access at va and returns its PA; ok is false
// once the environment has failed.
func (e *Env) access(va addr.VA, kind perm.Access) (pa addr.PA, ok bool) {
	if e.err != nil {
		return 0, false
	}
	pa, err := e.K.access(va, kind, perm.U)
	return pa, !e.Fail(err)
}

// Load64 reads an 8-byte word at va.
func (e *Env) Load64(va addr.VA) uint64 {
	pa, ok := e.access(va, perm.Read)
	if !ok {
		return 0
	}
	v, err := e.K.Mach.Mem.Read64(pa)
	e.Fail(err)
	return v
}

// Store64 writes an 8-byte word at va.
func (e *Env) Store64(va addr.VA, v uint64) {
	if pa, ok := e.access(va, perm.Write); ok {
		e.Fail(e.K.Mach.Mem.Write64(pa, v))
	}
}

// Load32 reads a 4-byte word at va.
func (e *Env) Load32(va addr.VA) uint32 {
	pa, ok := e.access(va, perm.Read)
	if !ok {
		return 0
	}
	v, err := e.K.Mach.Mem.Read32(pa)
	e.Fail(err)
	return v
}

// Store32 writes a 4-byte word at va.
func (e *Env) Store32(va addr.VA, v uint32) {
	if pa, ok := e.access(va, perm.Write); ok {
		e.Fail(e.K.Mach.Mem.Write32(pa, v))
	}
}

// Load8 reads one byte.
func (e *Env) Load8(va addr.VA) byte {
	pa, ok := e.access(va, perm.Read)
	if !ok {
		return 0
	}
	v, err := e.K.Mach.Mem.Read8(pa)
	e.Fail(err)
	return v
}

// Store8 writes one byte.
func (e *Env) Store8(va addr.VA, v byte) {
	if pa, ok := e.access(va, perm.Write); ok {
		e.Fail(e.K.Mach.Mem.Write8(pa, v))
	}
}

// chunks iterates [va, va+n) in cache-line-bounded pieces, issuing one
// timed access per line and calling f with the translated PA and the offset
// and size of each piece. Pieces are submitted in batched blocks of at most
// BlockMax: the timed accesses of a block run first, then f is applied to
// each piece in order. Pieces are disjoint, so applying the functional
// copies after the block's timed accesses is indistinguishable from
// interleaving them. It stops at the first failure. A block asks the Env's
// scratch for only the lines left to copy, so a short copy does not grow it
// to BlockMax.
func (e *Env) chunks(va addr.VA, n uint64, kind perm.Access, f func(pa addr.PA, off, size uint64) error) {
	var sizes [BlockMax]uint64
	var done uint64
	for n > 0 {
		lines := (uint64(va)+n-1)/cache.LineSize - uint64(va)/cache.LineSize + 1
		ops, out := e.Block(int(min(lines, BlockMax)))
		nOps := 0
		pieceVA, rem := va, n
		for rem > 0 && nOps < len(ops) {
			pieceEnd := (uint64(pieceVA)/cache.LineSize + 1) * cache.LineSize
			size := pieceEnd - uint64(pieceVA)
			if size > rem {
				size = rem
			}
			ops[nOps] = cpu.BlockRef{VA: pieceVA, Kind: kind}
			sizes[nOps] = size
			nOps++
			pieceVA += addr.VA(size)
			rem -= size
		}
		if e.RunBlock(ops[:nOps], out[:nOps]) != nil {
			return
		}
		for i := 0; i < nOps; i++ {
			if e.Fail(f(out[i].PA, done, sizes[i])) {
				return
			}
			done += sizes[i]
		}
		va, n = pieceVA, rem
	}
}

// LoadBytes copies n bytes starting at va out of simulated memory, one
// timed line access per 64 bytes. Bytes from the first failed line on read
// zero.
func (e *Env) LoadBytes(va addr.VA, n uint64) []byte {
	out := make([]byte, n)
	e.chunks(va, n, perm.Read, func(pa addr.PA, off, size uint64) error {
		return e.K.Mach.Mem.Read(pa, out[off:off+size])
	})
	return out
}

// StoreBytes copies data into simulated memory starting at va.
func (e *Env) StoreBytes(va addr.VA, data []byte) {
	e.chunks(va, uint64(len(data)), perm.Write, func(pa addr.PA, off, size uint64) error {
		return e.K.Mach.Mem.Write(pa, data[off:off+size])
	})
}

// FetchAt models executing code on the page containing va (one instruction
// fetch reference).
func (e *Env) FetchAt(va addr.VA) { e.access(va, perm.Fetch) }

// Alloc maps pages of fresh anonymous memory and returns its base (like
// malloc backed by mmap). Memory is demand-faulted on first touch.
func (e *Env) Alloc(bytes uint64) addr.VA {
	pages := int(addr.AlignUp(bytes, addr.PageSize) / addr.PageSize)
	return e.P.MMap(pages, perm.RW)
}

// PrefaultQuiet maps a range without charging any cycles — the state a
// snapshot-restored (or forked-from-template) serverless runtime starts
// with: memory present, translations cold. Only page-table state is
// created; the core clock does not advance.
func (e *Env) PrefaultQuiet(va addr.VA, bytes uint64) error {
	before := e.K.Mach.Core.Now
	if err := e.Touch(va, bytes); err != nil {
		return err
	}
	e.K.Mach.Core.Now = before
	return nil
}

// Touch pre-faults a range without timing (experiment setup). A failure
// is recorded like a failed access's, and after one Touch does nothing.
func (e *Env) Touch(va addr.VA, bytes uint64) error {
	if e.err != nil {
		return e.err
	}
	for off := uint64(0); off < bytes; off += addr.PageSize {
		page := (va + addr.VA(off)).PageBase()
		if _, ok := e.P.pages[page]; ok {
			continue
		}
		if err := e.K.HandleFault(e.P, page, perm.Write); err != nil {
			e.Fail(fmt.Errorf("touch %v: %w", page, err))
			return e.err
		}
	}
	return nil
}
