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
	// Priv is the privilege level subsequent accesses run at.
	Priv perm.Priv

	// instrCarry accumulates fractional instruction cycles so that many
	// small Compute calls do not round away time.
	instrCarry float64

	// Hot-path counter handles, resolved once in NewCore.
	hInstructions, hMemOps, hMemStall *uint64

	Counters stats.Counters
}

// NewCore builds a core over an MMU, starting in U-mode at cycle 0.
func NewCore(cfg Config, m *mmu.MMU) *Core {
	c := &Core{Cfg: cfg, MMU: m, Priv: perm.U}
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

// Access runs one memory access, writing the MMU outcome into *out, and
// advances time by the exposed stall. The translation portion (L2-TLB
// probe, page walk, permission-table walk) is always fully exposed;
// HideCycles only shave the data-side latency. The out-parameter mirrors
// mmu.Access: the Result is built once in caller storage instead of being
// copied up through every return.
func (c *Core) Access(va addr.VA, k perm.Access, size uint64, out *mmu.Result) error {
	if err := c.MMU.Access(va, k, c.Priv, c.Now, out); err != nil {
		return err
	}
	stall := c.exposedLatency(out)
	c.Now += stall
	*c.hMemOps++
	*c.hMemStall += stall
	_ = size
	return nil
}

// BlockRef is one operation of a batched block: an optional run of ALU
// instructions retired before one memory access. The Compute field lets a
// converted workload loop keep its exact per-element instruction stream
// (e.g. U64Array.Set retires 2 instructions before each store), so cycle
// accounting is bit-identical to the scalar path.
type BlockRef struct {
	VA      addr.VA
	Kind    perm.Access
	Compute uint64
}

// RunBlock executes ops back to back at the core's current privilege,
// writing per-op MMU results into out (len(out) must be >= len(ops)). It
// returns the number of ops that completed without a fault. When n <
// len(ops), out[n] holds the faulted result — its time and counters are
// already applied, exactly as a scalar Access would have — and the caller
// (normally the kernel's fault handler) decides how to resume.
//
// The batch is observably identical to the equivalent Compute/Access call
// sequence; what it amortizes is per-call dispatch and the mem_ops /
// mem_stall counter updates, which accumulate locally and post once.
func (c *Core) RunBlock(ops []BlockRef, out []mmu.Result) (int, error) {
	if len(out) < len(ops) {
		panic("cpu: RunBlock out slice shorter than ops")
	}
	var memOps, memStall uint64
	for i := range ops {
		op := &ops[i]
		if op.Compute > 0 {
			c.Compute(op.Compute)
		}
		res := &out[i]
		if err := c.MMU.Access(op.VA, op.Kind, c.Priv, c.Now, res); err != nil {
			c.addMem(memOps, memStall)
			return i, err
		}
		stall := c.exposedLatency(res)
		c.Now += stall
		memOps++
		memStall += stall
		if res.Faulted() {
			c.addMem(memOps, memStall)
			return i, nil
		}
	}
	c.addMem(memOps, memStall)
	return len(ops), nil
}

// addMem posts a block's accumulated memory-op counters. Counter values are
// order-insensitive sums, so one Add per block is indistinguishable from
// per-access increments in any snapshot taken between blocks.
func (c *Core) addMem(ops, stall uint64) {
	if ops == 0 {
		return
	}
	*c.hMemOps += ops
	*c.hMemStall += stall
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

// Load performs a read at va.
func (c *Core) Load(va addr.VA, out *mmu.Result) error { return c.Access(va, perm.Read, 8, out) }

// Store performs a write at va.
func (c *Core) Store(va addr.VA, out *mmu.Result) error { return c.Access(va, perm.Write, 8, out) }

// Fetch performs an instruction fetch at va.
func (c *Core) Fetch(va addr.VA, out *mmu.Result) error { return c.Access(va, perm.Fetch, 4, out) }

// Seconds converts the accumulated cycles to seconds at the core clock.
func (c *Core) Seconds() float64 {
	return float64(c.Now) / (c.Cfg.ClockGHz * 1e9)
}
