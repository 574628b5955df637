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

// The paper's Table 1 memory system: 16 GB DDR3 FR-FCFS quad-rank,
// 14-14-14 at 1 GHz, queue depth 8. Both SoCs share it and no experiment
// varies it.
const (
	ranks               = 4 // DIMM ranks
	banksPerRank        = 8 // banks per rank
	banks               = ranks * banksPerRank
	rowBytes            = 8 * addr.KiB // bytes per row (row-buffer size)
	tCAS         uint64 = 14           // column access (read to data), cycles
	tRCD         uint64 = 14           // row activate to column access, cycles
	tRP          uint64 = 14           // precharge, cycles
	tBurst       uint64 = 4            // data burst transfer time, cycles
	tController  uint64 = 10           // fixed controller + PHY overhead, cycles
	queueDepth          = 8            // requests the controller accepts before stalling
)

// DRAM is the timing model. It is single-channel, matching the simulated
// SoCs. Not safe for concurrent use.
type DRAM struct {
	openRow [banks]int64  // per bank: open row id, -1 if closed
	busy    [banks]uint64 // per bank: cycle at which the bank becomes free
	// queue holds the completion times of in-flight requests (the
	// controller queue), oldest first. It is compacted in place, so it
	// never outgrows its first allocation of queueDepth.
	queue []uint64
}

// New builds a DRAM model with every row closed and every bank idle.
func New() *DRAM {
	d := &DRAM{queue: make([]uint64, 0, queueDepth)}
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	return d
}

// bankAndRow maps a physical address to (bank index, row id). Banks are
// interleaved on row-buffer-sized chunks so that streaming accesses rotate
// across banks, like real address mappings.
func (d *DRAM) bankAndRow(pa addr.PA) (int, int64) {
	chunk := uint64(pa) / rowBytes
	return int(chunk % banks), int64(chunk / banks)
}

// Access issues one line-sized read or write beginning at cycle `now` and
// returns the cycle at which data is available. A write is timed as a read:
// its completion models the write being accepted into the controller
// (posted), and it still occupies the bank.
func (d *DRAM) Access(pa addr.PA, now uint64, write bool) (done uint64) {
	bank, row := d.bankAndRow(pa)

	// Controller queue: if queueDepth requests are still in flight, the new
	// one waits for the oldest to drain.
	d.compactQueue(now)
	start := now
	if len(d.queue) >= queueDepth {
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
		lat = tCAS
	case d.openRow[bank] == -1:
		lat = tRCD + tCAS
	default:
		lat = tRP + tRCD + tCAS
	}
	lat += tBurst + tController

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
