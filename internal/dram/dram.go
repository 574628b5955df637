// Package dram models the main-memory timing of the evaluation platform: a
// DDR3-style FR-FCFS controller with open-row banks, per Table 1 of the
// paper (quad-rank, 14-14-14 CAS-RCD-RP at 1 GHz, queue depth 8). The model
// is deliberately at the fidelity the experiments need — per-bank open-row
// state, bank busy time, and queueing — rather than a full command scheduler.
//
// All times are in memory-controller cycles (1 GHz in the paper's
// configuration); the CPU models scale them to core cycles.
package dram

import "hpmp/internal/addr"

// Config describes the memory system geometry and timing.
type Config struct {
	Ranks        int    // DIMM ranks
	BanksPerRank int    // banks per rank
	RowBytes     uint64 // bytes per row (row-buffer size)
	TCAS         uint64 // column access (read to data), cycles
	TRCD         uint64 // row activate to column access, cycles
	TRP          uint64 // precharge, cycles
	TBurst       uint64 // data burst transfer time, cycles
	TController  uint64 // fixed controller + PHY overhead, cycles
	QueueDepth   int    // requests the controller accepts before stalling
}

// Default returns the paper's Table 1 memory configuration: 16 GB DDR3
// FR-FCFS quad-rank, 14-14-14 at 1 GHz, queue depth 8.
func Default() Config {
	return Config{
		Ranks:        4,
		BanksPerRank: 8,
		RowBytes:     8 * addr.KiB,
		TCAS:         14,
		TRCD:         14,
		TRP:          14,
		TBurst:       4,
		TController:  10,
		QueueDepth:   8,
	}
}

// DRAM is the timing model. It is single-channel, matching the simulated
// SoCs. Not safe for concurrent use.
type DRAM struct {
	cfg     Config
	openRow []int64  // per bank: open row id, -1 if closed
	busy    []uint64 // per bank: cycle at which the bank becomes free
	// queue holds the completion times of in-flight requests (the
	// controller queue), oldest first. It is compacted in place, so with a
	// QueueDepth it never outgrows its first allocation.
	queue []uint64
}

// New builds a DRAM model from cfg.
func New(cfg Config) *DRAM {
	n := cfg.Ranks * cfg.BanksPerRank
	d := &DRAM{cfg: cfg, openRow: make([]int64, n), busy: make([]uint64, n),
		queue: make([]uint64, 0, cfg.QueueDepth)}
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	return d
}

// bankAndRow maps a physical address to (bank index, row id). Banks are
// interleaved on row-buffer-sized chunks so that streaming accesses rotate
// across banks, like real address mappings.
func (d *DRAM) bankAndRow(pa addr.PA) (int, int64) {
	chunk := uint64(pa) / d.cfg.RowBytes
	nBanks := uint64(len(d.openRow))
	bank := int(chunk % nBanks)
	row := int64(chunk / nBanks)
	return bank, row
}

// Access issues one line-sized read or write beginning at cycle `now` and
// returns the cycle at which data is available. A write is timed as a read:
// its completion models the write being accepted into the controller
// (posted), and it still occupies the bank.
func (d *DRAM) Access(pa addr.PA, now uint64, write bool) (done uint64) {
	bank, row := d.bankAndRow(pa)

	// Controller queue: if QueueDepth requests are still in flight, the new
	// one waits for the oldest to drain.
	d.compactQueue(now)
	start := now
	if d.cfg.QueueDepth > 0 && len(d.queue) >= d.cfg.QueueDepth {
		oldest := d.queue[0]
		if oldest > start {
			start = oldest
		}
		d.dropQueued(1)
	}

	// Bank availability.
	if d.busy[bank] > start {
		start = d.busy[bank]
	}

	var lat uint64
	switch {
	case d.openRow[bank] == row:
		lat = d.cfg.TCAS
	case d.openRow[bank] == -1:
		lat = d.cfg.TRCD + d.cfg.TCAS
	default:
		lat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
	}
	lat += d.cfg.TBurst + d.cfg.TController

	d.openRow[bank] = row
	done = start + lat
	d.busy[bank] = done
	d.queue = append(d.queue, done)
	return done
}

// compactQueue drops completed requests from the controller queue.
func (d *DRAM) compactQueue(now uint64) {
	i := 0
	for i < len(d.queue) && d.queue[i] <= now {
		i++
	}
	if i > 0 {
		d.dropQueued(i)
	}
}

// dropQueued removes the n oldest requests from the controller queue,
// shifting the rest down in place.
func (d *DRAM) dropQueued(n int) {
	d.queue = d.queue[:copy(d.queue, d.queue[n:])]
}

// Reset closes all rows and clears queue state (used between experiment
// trials to re-create cold conditions deterministically).
func (d *DRAM) Reset() {
	for i := range d.openRow {
		d.openRow[i] = -1
		d.busy[i] = 0
	}
	d.queue = d.queue[:0]
}
