package kernel

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
)

// This file models the core OS operations LMBench measures (Table 3 of the
// paper). Each syscall is a sequence of privilege crossings, kernel
// data-structure touches, and user↔kernel copies executed on the simulated
// core — so its cost responds to the isolation mode through the TLB misses
// and page walks the kernel's own memory accesses take.

// enterSyscall/exitSyscall model the user↔kernel crossing's trap cost.
// Every access names its own privilege, so the crossing changes no core
// state.
func (k *Kernel) enterSyscall() {
	k.Mach.Core.Stall(k.cfg.SyscallTrapCycles)
}

func (k *Kernel) exitSyscall() {
	k.Mach.Core.Stall(k.cfg.SyscallTrapCycles / 2)
}

// SyscallNull is getppid(): trap in, read one scheduler field, trap out.
func (k *Kernel) SyscallNull() error {
	k.enterSyscall()
	defer k.exitSyscall()
	return k.touchKernel(2)
}

// SyscallRead models read(fd, buf, n) from the page cache: fd lookup,
// page-cache lookup, and an n-byte copy_to_user.
func (k *Kernel) SyscallRead(e *Env, buf addr.VA, n uint64) error {
	k.enterSyscall()
	defer k.exitSyscall()
	if err := k.touchKernel(6); err != nil { // fd table, file, inode, page cache
		return err
	}
	return k.copyToUser(e, buf, n)
}

// SyscallWrite models write(fd, buf, n) to the page cache.
func (k *Kernel) SyscallWrite(e *Env, buf addr.VA, n uint64) error {
	k.enterSyscall()
	defer k.exitSyscall()
	if err := k.touchKernel(4); err != nil {
		return err
	}
	return k.copyFromUser(e, buf, n)
}

// SyscallStat models stat(path): path walk over several dentry levels plus
// inode reads — the most kernel-data-intensive of the simple calls, which
// is why Table 3 shows it with the largest PMPT penalty.
func (k *Kernel) SyscallStat(components int) error {
	k.enterSyscall()
	defer k.exitSyscall()
	if components <= 0 {
		components = 4
	}
	// Each path component: dentry hash lookup + dentry + inode touches.
	return k.touchKernel(components * 12)
}

// SyscallFstat models fstat(fd): fd table + inode, no path walk.
func (k *Kernel) SyscallFstat() error {
	k.enterSyscall()
	defer k.exitSyscall()
	return k.touchKernel(5)
}

// SyscallOpenClose models open(path)+close(fd): path walk, file allocation,
// fd install, then teardown.
func (k *Kernel) SyscallOpenClose(components int) error {
	k.enterSyscall()
	if components <= 0 {
		components = 4
	}
	if err := k.touchKernel(components*12 + 20); err != nil {
		return err
	}
	k.exitSyscall()
	k.enterSyscall()
	err := k.touchKernel(6)
	k.exitSyscall()
	return err
}

// SyscallPipe models LMBench's pipe latency: a token bounced between two
// processes through a pipe — two copies and two context switches.
func (k *Kernel) SyscallPipe(e *Env, peer *Process, n uint64) error {
	if n == 0 {
		n = 1
	}
	k.enterSyscall()
	if err := k.touchKernel(5); err != nil {
		return err
	}
	if err := k.copyFromUser(e, e.P.Stack(), n); err != nil {
		return err
	}
	k.exitSyscall()
	if err := k.SwitchTo(peer.PID); err != nil {
		return err
	}
	peerEnv := &Env{K: k, P: peer}
	k.enterSyscall()
	if err := k.touchKernel(5); err != nil {
		return err
	}
	if err := k.copyToUser(peerEnv, peer.Stack(), n); err != nil {
		return err
	}
	k.exitSyscall()
	return k.SwitchTo(e.P.PID)
}

// ForkExit is LMBench's fork+exit: fork a child that immediately exits.
// The child touches a few pages first (as LMBench's child does before
// _exit), exercising the CoW machinery.
func (k *Kernel) ForkExit(e *Env) error {
	k.enterSyscall()
	child, err := k.Fork(e.P)
	k.exitSyscall()
	if err != nil {
		return err
	}
	if err := k.SwitchTo(child.PID); err != nil {
		return err
	}
	cEnv := &Env{K: k, P: child}
	// The child writes its stack before exiting (CoW copies).
	for i := 0; i < 4; i++ {
		cEnv.Store64(child.Stack()+addr.VA(i*addr.PageSize), uint64(i))
	}
	if err := cEnv.Err(); err != nil {
		return fmt.Errorf("child stack touch: %w", err)
	}
	k.enterSyscall()
	err = k.Exit(child.PID)
	k.exitSyscall()
	if err != nil {
		return err
	}
	return k.SwitchTo(e.P.PID)
}

// ForkExec is LMBench's fork+execve: fork then exec a fresh image in the
// child, run a few instructions, and exit.
func (k *Kernel) ForkExec(e *Env, img Image) error {
	k.enterSyscall()
	child, err := k.Fork(e.P)
	k.exitSyscall()
	if err != nil {
		return err
	}
	if err := k.SwitchTo(child.PID); err != nil {
		return err
	}
	k.enterSyscall()
	err = k.Exec(child, img)
	k.exitSyscall()
	if err != nil {
		return err
	}
	cEnv := &Env{K: k, P: child}
	// The fresh image faults in its entry code page and initial stack.
	cEnv.FetchAt(child.Code())
	cEnv.Store64(child.Stack(), 0)
	if err := cEnv.Err(); err != nil {
		return err
	}
	k.enterSyscall()
	err = k.Exit(child.PID)
	k.exitSyscall()
	if err != nil {
		return err
	}
	return k.SwitchTo(e.P.PID)
}

// copyToUser copies n bytes from the kernel heap to a user buffer: one
// kernel read and one user write per cache line.
func (k *Kernel) copyToUser(e *Env, dst addr.VA, n uint64) error {
	src := k.KernelHeap()
	for off := uint64(0); off < n; off += 64 {
		if _, err := k.access(src+addr.VA(off%uint64(kernelHeapPages*addr.PageSize)), perm.Read, perm.S); err != nil {
			return err
		}
		if _, err := k.access(dst+addr.VA(off), perm.Write, perm.S); err != nil {
			return err
		}
	}
	return nil
}

// copyFromUser copies n bytes from a user buffer into the kernel heap.
func (k *Kernel) copyFromUser(e *Env, src addr.VA, n uint64) error {
	dst := k.KernelHeap()
	for off := uint64(0); off < n; off += 64 {
		if _, err := k.access(src+addr.VA(off), perm.Read, perm.S); err != nil {
			return err
		}
		if _, err := k.access(dst+addr.VA(off%uint64(kernelHeapPages*addr.PageSize)), perm.Write, perm.S); err != nil {
			return err
		}
	}
	return nil
}
