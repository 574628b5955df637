// Package cpu provides the two core timing models of the evaluation
// platform (Table 1): RocketCore, a 5-stage in-order scalar at 1 GHz that
// exposes every cycle of memory latency, and BOOM, a 4-way superscalar
// out-of-order core at 3.2 GHz whose instruction window hides part of the
// *data* access latency but — like real hardware — cannot hide translation
// machinery: TLB-miss page walks and permission-table walks serialize the
// pipeline.
//
// This asymmetry is why the paper's BOOM numbers show *larger relative*
// permission-table overheads than Rocket (Fig. 12, Fig. 10): the OoO core's
// baseline is faster, while the extra-dimensional walk stays exposed.
package cpu

import (
	"hpmp/internal/mmu"
	"hpmp/internal/perm"
	"hpmp/internal/stats"

	"hpmp/internal/addr"
)

// Config is a core timing model.
type Config struct {
	Name     string
	ClockGHz float64
	// BaseIPC is instructions per cycle when not stalled on memory.
	BaseIPC float64
	// HideCycles is how many cycles of a data access the OoO window can
	// overlap with independent work (0 for in-order cores).
	HideCycles uint64
	// MemClockRatio is core-clock / memory-controller-clock (the DRAM model
	// runs at 1 GHz).
	MemClockRatio float64
}

// Rocket returns the in-order configuration from Table 1.
func Rocket() Config {
	return Config{
		Name:          "Rocket",
		ClockGHz:      1.0,
		BaseIPC:       0.65,
		HideCycles:    0,
		MemClockRatio: 1.0,
	}
}

// BOOM returns the out-of-order configuration from Table 1.
func BOOM() Config {
	return Config{
		Name:          "BOOM",
		ClockGHz:      3.2,
		BaseIPC:       2.2,
		HideCycles:    36,
		MemClockRatio: 3.2,
	}
}

// Core executes a stream of compute and memory operations against an MMU,
// accumulating a cycle count.
type Core struct {
	Cfg Config
	MMU *mmu.MMU
	// Now is the current core cycle.
	Now uint64

	// instrCarry accumulates fractional instruction cycles so that many
	// small Compute calls do not round away time.
	instrCarry float64

	// Hot-path counter handles, resolved once in NewCore.
	hInstructions, hMemOps, hMemStall *uint64

	Counters stats.Counters
}

// NewCore builds a core over an MMU, starting at cycle 0.
func NewCore(cfg Config, m *mmu.MMU) *Core {
	c := &Core{Cfg: cfg, MMU: m}
	c.hInstructions = c.Counters.Handle("cpu.instructions")
	c.hMemOps = c.Counters.Handle("cpu.mem_ops")
	c.hMemStall = c.Counters.Handle("cpu.mem_stall")
	return c
}

// Compute retires n ALU/branch instructions: time advances by n / BaseIPC.
func (c *Core) Compute(n uint64) {
	c.instrCarry += float64(n) / c.Cfg.BaseIPC
	whole := uint64(c.instrCarry)
	c.instrCarry -= float64(whole)
	c.Now += whole
	*c.hInstructions += n
}

// Stall advances time by exactly n cycles (fences, fixed hardware
// sequencing costs).
func (c *Core) Stall(n uint64) { c.Now += n }

// Access runs one memory access at privilege priv, writing the MMU outcome
// into *out, and advances time by the exposed stall. The translation
// portion (L2-TLB probe, page walk, permission-table walk) is always fully
// exposed; HideCycles only shave the data-side latency. The out-parameter
// mirrors mmu.Access: the Result is built once in caller storage instead
// of being copied up through every return.
func (c *Core) Access(va addr.VA, k perm.Access, priv perm.Priv, out *mmu.Result) error {
	if err := c.MMU.Access(va, k, priv, c.Now, out); err != nil {
		return err
	}
	stall := c.exposedLatency(out)
	c.Now += stall
	*c.hMemOps++
	*c.hMemStall += stall
	return nil
}

// BlockRef is one operation of a kernel.Env.RunBlock block: Compute ALU
// instructions retired before one memory access, exactly as an Env.Compute
// call followed by a scalar Env access retires them.
type BlockRef struct {
	VA      addr.VA
	Kind    perm.Access
	Compute uint64
}

// exposedLatency splits an MMU result into translation (exposed) and data
// (partially hidden) components.
func (c *Core) exposedLatency(res *mmu.Result) uint64 {
	translation := res.Latency - res.DataLatency
	data := res.DataLatency
	if c.Cfg.HideCycles >= data {
		data = 0
	} else {
		data -= c.Cfg.HideCycles
	}
	return translation + data
}
