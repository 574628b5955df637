package kernel

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
)

// This file implements the TEE-driver extension from the paper's
// discussion (§9, "Efficient isolation through new abstractions"): an ioctl
// that lets an application mark a virtual range as hot. The driver migrates
// hinted pages into a contiguous physical window registered with the secure
// monitor as a GMS, and flips its label to "fast" — so Penglai-HPMP mirrors
// it into a segment entry and *data-page* permission checks for the hot
// range become free, on top of the already-free PT-page checks.

// initHints sets the hint machinery up on first use.
func (k *Kernel) initHints() error {
	if k.hintsReady {
		return nil
	}
	if k.Mon == nil {
		return fmt.Errorf("kernel: memory-range hints need a secure monitor")
	}
	id, _, err := k.Mon.AddRegion(monitor.HostDomain, k.hintRegion, perm.RW, monitor.LabelSlow)
	if err != nil {
		return fmt.Errorf("kernel: registering hint GMS: %w", err)
	}
	k.hintGMS = id
	k.hintsReady = true
	return nil
}

// IoctlCreateHint marks [va, va+bytes) of the current process as hot: the
// pages are pre-faulted, migrated into the contiguous hint window, and the
// window's GMS is labelled "fast".
func (k *Kernel) IoctlCreateHint(e *Env, va addr.VA, bytes uint64) error {
	if e.P == nil {
		return fmt.Errorf("kernel: no process for hint")
	}
	if e.P.enclave != nil {
		// The hint window is a host GMS: enclave pages cannot move there.
		return fmt.Errorf("kernel: enclave process %d cannot take hints", e.P.PID)
	}
	if err := k.initHints(); err != nil {
		return err
	}
	k.enterSyscall()
	defer k.exitSyscall()

	base := va.PageBase()
	pages := int(addr.AlignUp(uint64(va+addr.VA(bytes))-uint64(base), addr.PageSize) / addr.PageSize)

	// Ensure everything is materialized, then migrate page by page.
	for i := 0; i < pages; i++ {
		page := base + addr.VA(i*addr.PageSize)
		if _, ok := e.P.pages[page]; !ok {
			if err := k.HandleFault(e.P, page, perm.Write); err != nil {
				return err
			}
		}
		mp := e.P.pages[page]
		if k.hintRegion.Contains(mp.pa) {
			continue // already inside the window
		}
		vma, ok := e.P.vmaFor(page)
		if !ok {
			return fmt.Errorf("kernel: hinted page %v has no VMA", page)
		}
		if err := k.movePage(e.P, page, mp, k.hintAlloc, vma.Perm); err != nil {
			return fmt.Errorf("kernel: migrating hinted page %v: %w", page, err)
		}
		// Copy cost + the PTE store.
		k.Mach.Core.Stall(380)
	}
	k.Mach.MMU.FlushTLB()

	// Only the first hint relabels the window: SetLabel to the label a GMS
	// already has costs nothing and counts nothing.
	if _, err := k.Mon.SetLabel(k.hintGMS, monitor.LabelFast); err != nil {
		return err
	}
	k.Counters.Inc("kernel.hint_create")
	return nil
}
