// Package kernel models the operating system the paper modifies (§5
// "Operating system support"): it owns page tables, demand paging, process
// lifecycle (fork/exec/exit), and a syscall engine used by the LMBench
// experiment.
//
// The paper's ~700-line Linux change has one essential effect, which this
// model reproduces exactly: *all page-table pages are allocated from a
// single contiguous pool*, registered with the secure monitor as one GMS
// labelled "fast". Under Penglai-HPMP that GMS is mirrored into a segment
// entry, so every PT-page reference during hardware walks is validated for
// free. The kernel always runs with the change: the comparison the paper
// draws is between isolation modes, and PMP and PMPT machines run the same
// kernel, whose pool label they accept but have no fast path for.
package kernel

import (
	"fmt"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pt"
	"hpmp/internal/stats"
)

// KernelBase is the start of the kernel half of the Sv39 address space
// (canonical negative addresses).
const KernelBase addr.VA = 0xffff_ffc0_0000_0000

// Well-known kernel VMAs (sizes in pages).
const (
	kernelTextPages = 512 // 2 MiB of kernel code
	kernelDataPages = 256 // 1 MiB of static data
	// kernelHeapPages sizes the slab/heap (dentries, inodes, ...). 2 MiB:
	// LLC-resident (kernel structures are hot in real systems) but far
	// beyond the scaled TLB reach, so syscall costs are dominated by
	// translation — the regime Table 3 measures.
	kernelHeapPages = 512
)

// Config tunes the kernel model.
type Config struct {
	// PTPoolRegion is the contiguous physical region PT pages come from
	// (the paper's OS change). It must be NAPOT for the fast segment.
	PTPoolRegion addr.Range
	// UserRegion is the physical pool for user/kernel data frames.
	UserRegion addr.Range
	// ScatterFrames hands out user frames in a deterministic shuffle,
	// modelling a fragmented physical layout (§8.8).
	ScatterFrames bool
	// HintRegion is the contiguous, NAPOT physical window the TEE driver
	// migrates hot application pages into (§9 hot/cold hint ioctls).
	HintRegion addr.Range
}

const (
	// faultTrapCycles is the fixed trap/handler cost of a page fault.
	faultTrapCycles = 700
	// syscallTrapCycles is the fixed user↔kernel crossing cost.
	syscallTrapCycles = 280
)

// DefaultConfig places the PT pool at 256 MiB and user memory above it;
// machines smaller than 768 MiB get a compacted layout. memSize is the
// machine's physical memory size.
func DefaultConfig(memSize uint64) Config {
	ptBase, userBase, hintBase := uint64(0x1000_0000), uint64(0x1800_0000), uint64(0x1400_0000)
	if memSize < 2*userBase {
		ptBase, userBase, hintBase = 0x400_0000, 0x800_0000, 0x500_0000
	}
	return Config{
		PTPoolRegion: addr.Range{Base: addr.PA(ptBase), Size: 16 * addr.MiB},
		HintRegion:   addr.Range{Base: addr.PA(hintBase), Size: 16 * addr.MiB},
		UserRegion:   addr.Range{Base: addr.PA(userBase), Size: memSize - userBase},
	}
}

// PID identifies a process.
type PID int

// Kernel is the OS instance running in the host domain (or inside an
// enclave, for enclave runtimes).
type Kernel struct {
	Mach *cpu.Machine
	Mon  *monitor.Monitor // may be nil (no TEE deployed)
	cfg  Config

	ptAlloc   *phys.FrameAllocator
	userAlloc *phys.FrameAllocator

	// kernelPT is the master table holding the kernel half; its top-level
	// kernel entries are copied into every process root (as Linux does).
	kernelPT *pt.Table

	procs   map[PID]*Process
	nextPID PID
	current PID
	// shares counts, per copy-on-write shared frame, its owners beyond the
	// first; an absent entry means one owner (see releaseFrame).
	shares map[addr.PA]int

	// enclaveCarved is how much of the user-region tail, below its
	// MiB-aligned end, has been carved for enclaves; enclaveFree holds the
	// carved blocks that exited enclaves gave back, sorted by base and
	// merged (see enclave.go).
	enclaveCarved uint64
	enclaveFree   []addr.Range

	// Hot memory-range hints (the §9 hint ioctl).
	hintRegion addr.Range
	hintAlloc  *phys.FrameAllocator
	hintGMS    monitor.GMSID
	hintsReady bool // hintGMS is registered

	rng uint64

	Counters stats.Counters
}

// New boots the kernel model on a machine. When mon is non-nil the PT pool
// is registered as a fast GMS (the paper's OS change); user memory belongs
// to the host domain already.
func New(mach *cpu.Machine, mon *monitor.Monitor, cfg Config) (*Kernel, error) {
	k := &Kernel{
		Mach:    mach,
		Mon:     mon,
		cfg:     cfg,
		procs:   make(map[PID]*Process),
		shares:  make(map[addr.PA]int),
		current: -1,
		rng:     0x243f6a8885a308d3,

		ptAlloc:    phys.NewFrameAllocator(cfg.PTPoolRegion, false),
		userAlloc:  phys.NewFrameAllocator(cfg.UserRegion, cfg.ScatterFrames),
		hintRegion: cfg.HintRegion,
		hintAlloc:  phys.NewFrameAllocator(cfg.HintRegion, false),
	}
	if mon != nil {
		// Register the PT pool as a fast GMS — the hint Penglai-HPMP turns
		// into a segment entry. Under PMP/PMPT modes the label is accepted
		// but has no fast path.
		if _, _, err := mon.AddRegion(monitor.HostDomain, cfg.PTPoolRegion, perm.RW, monitor.LabelFast); err != nil {
			return nil, fmt.Errorf("kernel: registering PT pool GMS: %w", err)
		}
	}

	// Build the kernel master table and its VMAs.
	kpt, err := pt.New(mach.Mem, k.ptAlloc, addr.Sv39)
	if err != nil {
		return nil, err
	}
	k.kernelPT = kpt
	layout := []struct {
		base  addr.VA
		pages int
		p     perm.Perm
	}{
		{KernelBase, kernelTextPages, perm.RX},
		{KernelBase + addr.VA(kernelTextPages*addr.PageSize), kernelDataPages, perm.RW},
		{KernelBase + addr.VA((kernelTextPages+kernelDataPages)*addr.PageSize), kernelHeapPages, perm.RW},
	}
	for _, l := range layout {
		err := kpt.MapRange(l.base, l.pages, l.p, false, k.userAlloc.Alloc)
		if err != nil {
			return nil, fmt.Errorf("kernel: mapping kernel VMAs: %w", err)
		}
	}
	return k, nil
}

// KernelHeap returns the base VA of the kernel heap.
func (k *Kernel) KernelHeap() addr.VA {
	return KernelBase + addr.VA((kernelTextPages+kernelDataPages)*addr.PageSize)
}

// rand returns a deterministic pseudo-random number (xorshift64*).
func (k *Kernel) rand() uint64 {
	k.rng ^= k.rng >> 12
	k.rng ^= k.rng << 25
	k.rng ^= k.rng >> 27
	return k.rng * 0x2545f4914f6cdd1d
}

// shareKernelHalf copies the kernel half's top-level PTEs from the master
// table into a process root — the Linux trick that makes the kernel mapping
// shared between all address spaces (no per-process kernel PT pages).
func (k *Kernel) shareKernelHalf(root addr.PA) error {
	kroot := k.kernelPT.Root()
	for idx := 256; idx < 512; idx++ { // VPN[2] ≥ 256: the negative half
		v, err := k.Mach.Mem.Read64(kroot + addr.PA(idx*8))
		if err != nil {
			return err
		}
		if v != 0 {
			if err := k.Mach.Mem.Write64(root+addr.PA(idx*8), v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Current returns the running process, or nil.
func (k *Kernel) Current() *Process { return k.procs[k.current] }

// NumProcesses returns the live process count.
func (k *Kernel) NumProcesses() int { return len(k.procs) }

// touchKernel performs n dependent kernel-data reads at deterministic
// pseudo-random heap offsets — the cache/TLB behaviour of chasing kernel
// structures (dentries, inodes, run queues).
func (k *Kernel) touchKernel(n int) error {
	heap := k.KernelHeap()
	span := uint64(kernelHeapPages * addr.PageSize)
	for i := 0; i < n; i++ {
		off := k.rand() % (span - 8)
		va := heap + addr.VA(off&^7)
		if _, err := k.access(va, perm.Read, perm.S); err != nil {
			return err
		}
	}
	return nil
}

// access runs one access on the core at the given privilege, handling page
// faults for the current process transparently (demand paging).
func (k *Kernel) access(va addr.VA, kind perm.Access, priv perm.Priv) (addr.PA, error) {
	var res mmu.Result
	if err := k.settle(va, kind, priv, &res); err != nil {
		return 0, err
	}
	return res.PA, nil
}

// modeName names the kernel's isolation mode: the monitor's, or Host-PMP
// when no monitor is deployed.
func (k *Kernel) modeName() string {
	if k.Mon == nil {
		return "Host-PMP"
	}
	return k.Mon.Mode().String()
}

// settle is the one demand-paging step behind every simulated access: it
// runs the access on the core at privilege priv into *res and
// handles what faults — a page fault is resolved and the access retried, a
// write denied by protection or isolation gets a copy-on-write attempt,
// and anything else is an error, as is an access still faulting after
// three tries.
func (k *Kernel) settle(va addr.VA, kind perm.Access, priv perm.Priv, res *mmu.Result) error {
	for attempt := 0; attempt < 3; attempt++ {
		if err := k.Mach.Core.Access(va, kind, priv, res); err != nil {
			return err
		}
		switch {
		case res.PageFault:
			if err := k.HandleFault(k.Current(), va, kind); err != nil {
				return err
			}
			continue
		case !res.ProtFault && !res.AccessFault:
			return nil
		case kind == perm.Write:
			// Possible copy-on-write page.
			handled, err := k.handleCoW(k.Current(), va)
			if err != nil {
				return err
			}
			if handled {
				continue
			}
		}
		return fmt.Errorf("kernel: fault at %v (%v, prot=%v access=%v)",
			va, kind, res.ProtFault, res.AccessFault)
	}
	return fmt.Errorf("kernel: access at %v did not settle after fault handling", va)
}
