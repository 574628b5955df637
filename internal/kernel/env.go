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
}

// RunBlock runs ops in order at user privilege, writing each op's result
// into out, and returns Err(). An op retires its Compute instructions, then
// takes the same timed step as a scalar access. out is valid only when Err()
// is nil; once an access has failed, a block runs nothing. No workload
// submits blocks: RunBlock stays for cmd/hpmpbench's cpu.runblock_ns_per_op
// probe.
func (e *Env) RunBlock(ops []cpu.BlockRef, out []mmu.Result) error {
	for i := 0; i < len(ops) && e.err == nil; i++ {
		if ops[i].Compute > 0 {
			e.Compute(ops[i].Compute)
		}
		e.access(ops[i].VA, ops[i].Kind, &out[i])
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

// Lockstep makes e drive peers: every timed access, Compute, Alloc,
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

// access is the one timed-access step: it settles a user access at va on
// e's kernel into *res, then runs the same access on each peer, and reports
// whether all of them settled. It does nothing once e has failed.
func (e *Env) access(va addr.VA, kind perm.Access, res *mmu.Result) bool {
	if e.err != nil || e.Fail(e.K.settle(va, kind, perm.U, res)) {
		return false
	}
	for _, p := range e.peers {
		var peer mmu.Result
		if err := p.K.settle(va, kind, perm.U, &peer); err != nil {
			e.failPeer(p, err)
			return false
		}
	}
	return true
}

// Load64 reads an 8-byte word at va.
func (e *Env) Load64(va addr.VA) uint64 {
	var res mmu.Result
	if !e.access(va, perm.Read, &res) {
		return 0
	}
	v, err := e.K.Mach.Mem.Read64(res.PA)
	e.Fail(err)
	return v
}

// Store64 writes an 8-byte word at va.
func (e *Env) Store64(va addr.VA, v uint64) {
	var res mmu.Result
	if e.access(va, perm.Write, &res) {
		e.Fail(e.K.Mach.Mem.Write64(res.PA, v))
	}
}

// Load32 reads a 4-byte word at va.
func (e *Env) Load32(va addr.VA) uint32 {
	var res mmu.Result
	if !e.access(va, perm.Read, &res) {
		return 0
	}
	v, err := e.K.Mach.Mem.Read32(res.PA)
	e.Fail(err)
	return v
}

// Store32 writes a 4-byte word at va.
func (e *Env) Store32(va addr.VA, v uint32) {
	var res mmu.Result
	if e.access(va, perm.Write, &res) {
		e.Fail(e.K.Mach.Mem.Write32(res.PA, v))
	}
}

// Load8 reads one byte.
func (e *Env) Load8(va addr.VA) byte {
	var res mmu.Result
	if !e.access(va, perm.Read, &res) {
		return 0
	}
	v, err := e.K.Mach.Mem.Read8(res.PA)
	e.Fail(err)
	return v
}

// Store8 writes one byte.
func (e *Env) Store8(va addr.VA, v byte) {
	var res mmu.Result
	if e.access(va, perm.Write, &res) {
		e.Fail(e.K.Mach.Mem.Write8(res.PA, v))
	}
}

// chunks iterates [va, va+n) in cache-line-bounded pieces: for each piece
// it takes one timed access, then calls f with the translated PA and the
// piece's offset and size. It stops at the first failure, so the pieces
// before it have been applied and the rest have not.
func (e *Env) chunks(va addr.VA, n uint64, kind perm.Access, f func(pa addr.PA, off, size uint64) error) {
	var res mmu.Result
	for off := uint64(0); off < n; {
		size := min(cache.LineSize-uint64(va)%cache.LineSize, n-off)
		if !e.access(va, kind, &res) || e.Fail(f(res.PA, off, size)) {
			return
		}
		off += size
		va += addr.VA(size)
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
func (e *Env) FetchAt(va addr.VA) {
	var res mmu.Result
	e.access(va, perm.Fetch, &res)
}

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
