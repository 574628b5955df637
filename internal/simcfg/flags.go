package simcfg

import (
	"flag"

	"hpmp/internal/addr"
)

// Flags is the one registration of the machine-config flag set shared by
// cmd/hpmpsim and cmd/hpmptrace (cmd/hpmpsimd takes machine configs as job
// JSON, never as flags). The flag surface keeps the historical CLI
// convention for cache geometry — 0 = the structure is absent, < 0 =
// platform default — which Machine() remaps onto the tri-state internal
// encoding (and leaves -pmptw-cache raw: its flag and internal encodings
// coincide, 0 meaning no cache, the paper default).
type Flags struct {
	Platform   *string
	Mode       *string
	MemMiB     *uint64
	L2TLB      *int
	PWC        *int
	PMPTWCache *int
	Depth      *int
}

// AddFlags registers the shared machine flags on fs. prefix is prepended
// to every mode/geometry usage string ("with 'replay', " in cmd/hpmpsim,
// empty elsewhere); -mem stays unprefixed because the callers that share
// it use it beyond machine assembly.
func AddFlags(fs *flag.FlagSet, prefix string) *Flags {
	return &Flags{
		Platform:   fs.String("platform", "rocket", prefix+"target platform (rocket or boom)"),
		Mode:       fs.String("mode", "hpmp", prefix+"isolation mode (none, pmp, pmpt, hpmp)"),
		MemMiB:     fs.Uint64("mem", 512, "simulated DRAM size in MiB"),
		L2TLB:      fs.Int("l2tlb", -1, prefix+"L2 TLB entries (0 = no L2 TLB, <0 = platform default)"),
		PWC:        fs.Int("pwc", -1, prefix+"page-walk cache entries (0 = no PWC, <0 = platform default)"),
		PMPTWCache: fs.Int("pmptw-cache", 0, prefix+"PMPT walker cache entries (0 = none, the paper default)"),
		Depth:      fs.Int("depth", 0, prefix+"permission-table depth (0 = default, 2, 3, or 4)"),
	}
}

// triFromFlag remaps one CLI geometry value (0 = absent, <0 = default)
// onto the internal tri-state (<0 = absent, 0 = default).
func triFromFlag(v int) int {
	switch {
	case v < 0:
		return 0 // platform default
	case v == 0:
		return -1 // explicitly absent: zero-capacity structure
	default:
		return v
	}
}

// Machine resolves the parsed flags into the unified config. Call after
// fs.Parse; validate with Machine.Validate.
func (f *Flags) Machine() Machine {
	return Machine{
		Platform:     *f.Platform,
		Mode:         Mode(*f.Mode),
		MemSize:      *f.MemMiB * addr.MiB,
		L2TLBEntries: triFromFlag(*f.L2TLB),
		PWCEntries:   triFromFlag(*f.PWC),
		PMPTWCache:   *f.PMPTWCache,
		TableDepth:   *f.Depth,
	}
}
