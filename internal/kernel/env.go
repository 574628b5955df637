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

	// peers are the environments driven in lockstep with this one (see
	// Lockstep).
	peers []*Env

	// block is the reusable scratch for batched block runs
	// (Block/RunBlock): allocated on the first Block and recycled, so
	// converted workload loops stay allocation-light no matter how many
	// blocks they submit. It sits behind a pointer so that an Env that runs
	// no block, such as a short syscall child's, stays small.
	block *blockScratch
}

// blockScratch is an Env's block scratch: ops and their results.
type blockScratch struct {
	ops []cpu.BlockRef
	res []mmu.Result
}

// BlockMax is the largest block Env's batched helpers submit at once; it
// bounds the scratch footprint while still amortizing per-call overhead
// across hundreds of references.
const BlockMax = 256

// Block returns scratch ops/results slices of length n (reused across
// calls — the previous block's contents are overwritten). Callers fill the
// ops and hand both slices to RunBlock.
func (e *Env) Block(n int) ([]cpu.BlockRef, []mmu.Result) {
	if e.block == nil || cap(e.block.ops) < n {
		e.block = &blockScratch{ops: make([]cpu.BlockRef, n), res: make([]mmu.Result, n)}
	}
	return e.block.ops[:n], e.block.res[:n]
}

// RunBlock executes ops as one batched block at user privilege with the
// same demand-paging fault handling as the scalar Load/Store helpers,
// writing per-op results into out, and returns Err(). out is valid only
// when that is nil; once an access has failed, a block runs nothing. An
// op's Compute instructions retire once, then its access settles exactly
// as a scalar access does; then the op runs on each peer.
//
// Ordering caveat: the caller applies each op's functional effect after the
// block returns, so ops inside one block must not depend on memory written
// by an earlier op of the same block. The converted loops in
// internal/workloads (array fills, line chunk copies) all touch disjoint
// locations per op.
func (e *Env) RunBlock(ops []cpu.BlockRef, out []mmu.Result) error {
	var res mmu.Result
	for i := 0; i < len(ops) && e.err == nil; i++ {
		op := &ops[i]
		if op.Compute > 0 {
			e.K.Mach.Core.Compute(op.Compute)
		}
		if e.Fail(e.K.settle(op.VA, op.Kind, perm.U, &out[i])) {
			break
		}
		for _, p := range e.peers {
			if op.Compute > 0 {
				p.K.Mach.Core.Compute(op.Compute)
			}
			if err := p.K.settle(op.VA, op.Kind, perm.U, &res); err != nil {
				e.failPeer(p, err)
				break
			}
		}
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

// Lockstep makes e drive peers: every timed access, block, Compute, Alloc,
// Touch and PrefaultQuiet on e also runs on each peer's kernel right after
// it runs on e's, one access at a time. So one functional run of a program
// times it on several machines, for instance the same workload under
// several isolation modes, whose programs are identical. Data lives in e's
// memory only: a peer translates and times each access but never reads or
// writes the data, so its frames hold zeros. Each peer must be a fresh
// process whose address space matches e's (same image, same kernel
// configuration); Alloc checks that every peer maps the leader's VA. A
// peer's failure fails e and names the peer's isolation mode. Only these
// Env methods fan out: kernel calls that take an Env (syscalls, hints)
// act on e's kernel alone.
func (e *Env) Lockstep(peers ...*Env) { e.peers = peers }

// failPeer records peer p's failure as e's, naming p's isolation mode.
func (e *Env) failPeer(p *Env, err error) {
	e.Fail(fmt.Errorf("kernel: %s peer: %w", p.K.modeName(), err))
}

// Compute retires n user instructions.
func (e *Env) Compute(n uint64) {
	e.K.Mach.Core.Compute(n)
	for _, p := range e.peers {
		p.K.Mach.Core.Compute(n)
	}
}

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
	if e.Fail(err) || len(e.peers) > 0 && !e.accessPeers(va, kind) {
		return 0, false
	}
	return pa, true
}

// accessPeers runs access's user access on every peer, in order, and
// reports whether all of them settled.
func (e *Env) accessPeers(va addr.VA, kind perm.Access) bool {
	for _, p := range e.peers {
		if _, err := p.K.access(va, kind, perm.U); err != nil {
			e.failPeer(p, err)
			return false
		}
	}
	return true
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
	va := e.P.MMap(pages, perm.RW)
	for _, p := range e.peers {
		if got := p.P.MMap(pages, perm.RW); got != va {
			e.failPeer(p, fmt.Errorf("alloc mapped %v, leader %v", got, va))
		}
	}
	return va
}

// PrefaultQuiet maps a range without charging any cycles — the state a
// snapshot-restored (or forked-from-template) serverless runtime starts
// with: memory present, translations cold. Only page-table state is
// created; no core clock advances.
func (e *Env) PrefaultQuiet(va addr.VA, bytes uint64) error {
	before := e.Now()
	peersBefore := make([]uint64, len(e.peers))
	for i, p := range e.peers {
		peersBefore[i] = p.Now()
	}
	if err := e.Touch(va, bytes); err != nil {
		return err
	}
	e.K.Mach.Core.Now = before
	for i, p := range e.peers {
		p.K.Mach.Core.Now = peersBefore[i]
	}
	return nil
}

// Touch pre-faults a range without timing (experiment setup), page by
// page on e and then on each peer. A failure is recorded like a failed
// access's, and after one Touch does nothing.
func (e *Env) Touch(va addr.VA, bytes uint64) error {
	if e.err != nil {
		return e.err
	}
	for off := uint64(0); off < bytes; off += addr.PageSize {
		page := (va + addr.VA(off)).PageBase()
		if e.Fail(e.touchPage(page)) {
			return e.err
		}
		for _, p := range e.peers {
			if err := p.touchPage(page); err != nil {
				e.failPeer(p, err)
				return e.err
			}
		}
	}
	return nil
}

// touchPage faults in one page of e's process unless it is mapped.
func (e *Env) touchPage(page addr.VA) error {
	if _, ok := e.P.pages[page]; ok {
		return nil
	}
	if err := e.K.HandleFault(e.P, page, perm.Write); err != nil {
		return fmt.Errorf("touch %v: %w", page, err)
	}
	return nil
}
