package dram

import (
	"testing"

	"hpmp/internal/addr"
)

func TestRowHitFasterThanMiss(t *testing.T) {
	d := New(Default())
	cfg := d.cfg

	// First access to a closed bank: RCD + CAS.
	done1 := d.Access(0x1000, 0, false)
	wantFirst := cfg.TRCD + cfg.TCAS + cfg.TBurst + cfg.TController
	if done1 != wantFirst {
		t.Errorf("first access latency = %d, want %d", done1, wantFirst)
	}

	// Same row, after the bank is free: row hit, CAS only.
	now := done1
	done2 := d.Access(0x1040, now, false)
	wantHit := cfg.TCAS + cfg.TBurst + cfg.TController
	if done2-now != wantHit {
		t.Errorf("row hit latency = %d, want %d", done2-now, wantHit)
	}

	// Different row, same bank: conflict, RP + RCD + CAS.
	nBanks := uint64(cfg.Ranks * cfg.BanksPerRank)
	conflictPA := addr.PA(uint64(0x1000) + cfg.RowBytes*nBanks)
	now = done2
	done3 := d.Access(conflictPA, now, false)
	wantConf := cfg.TRP + cfg.TRCD + cfg.TCAS + cfg.TBurst + cfg.TController
	if done3-now != wantConf {
		t.Errorf("row conflict latency = %d, want %d", done3-now, wantConf)
	}

	if d.Counters.Snapshot()["dram.row_hit"] != 1 || d.Counters.Snapshot()["dram.row_conflict"] != 1 {
		t.Errorf("counters wrong: %v", d.Counters.String())
	}
}

func TestBankBusySerializes(t *testing.T) {
	d := New(Default())
	// Two back-to-back requests to the same bank at the same cycle: the
	// second must wait for the first.
	d1 := d.Access(0x0, 0, false)
	d2 := d.Access(0x40, 0, false) // same row, same bank
	if d2 <= d1 {
		t.Errorf("second access (%d) must finish after first (%d)", d2, d1)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	d := New(Default())
	cfg := d.cfg
	// Addresses one row-chunk apart map to different banks.
	d1 := d.Access(0x0, 0, false)
	d2 := d.Access(addr.PA(cfg.RowBytes), 0, false)
	if d1 != d2 {
		t.Errorf("independent banks should have equal first-access time: %d vs %d", d1, d2)
	}
	if d.Counters.Snapshot()["dram.bank_conflict"] != 0 {
		t.Error("no bank conflict expected across banks")
	}
}

func TestQueueDepthStalls(t *testing.T) {
	cfg := Default()
	cfg.QueueDepth = 2
	d := New(cfg)
	// Issue 3 requests at cycle 0 to distinct banks; the third must stall on
	// the controller queue even though its bank is free.
	d.Access(0x0, 0, false)
	d.Access(addr.PA(cfg.RowBytes), 0, false)
	before := d.Counters.Snapshot()["dram.queue_stall"]
	d.Access(addr.PA(2*cfg.RowBytes), 0, false)
	if d.Counters.Snapshot()["dram.queue_stall"] != before+1 {
		t.Error("third concurrent request should hit the queue-depth limit")
	}
}

func TestReset(t *testing.T) {
	d := New(Default())
	d.Access(0x1000, 0, false)
	d.Reset()
	// After reset, the same row must be an "empty" activation again, not a hit.
	hitsBefore := d.Counters.Snapshot()["dram.row_hit"]
	d.Access(0x1000, 0, false)
	if d.Counters.Snapshot()["dram.row_hit"] != hitsBefore {
		t.Error("Reset must close open rows")
	}
	if d.Counters.Snapshot()["dram.row_empty"] != 2 {
		t.Errorf("want 2 empty activations, got %d", d.Counters.Snapshot()["dram.row_empty"])
	}
}

func TestStreamingRotatesBanks(t *testing.T) {
	d := New(Default())
	cfg := d.cfg
	seen := make(map[int]bool)
	for i := uint64(0); i < uint64(cfg.Ranks*cfg.BanksPerRank); i++ {
		bank, _ := d.bankAndRow(addr.PA(i * cfg.RowBytes))
		seen[bank] = true
	}
	if len(seen) != cfg.Ranks*cfg.BanksPerRank {
		t.Errorf("row-chunk stride should touch every bank, got %d/%d",
			len(seen), cfg.Ranks*cfg.BanksPerRank)
	}
}

// TestAccessDoesNotAllocate pins Access at zero allocations: its counters
// are pre-resolved handles and the controller queue is compacted in place.
// Each run is a burst that fills the queue, stalls on it and then drains
// it, so every queue path runs.
func TestAccessDoesNotAllocate(t *testing.T) {
	d := New(Default())
	cfg := d.cfg
	var now uint64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			d.Access(addr.PA(uint64(i)*cfg.RowBytes*5), now, i%3 == 0)
			if i%16 == 15 {
				now += 500
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Access allocates: %v allocations per 64-access burst, want 0", allocs)
	}
	if d.Counters.Snapshot()["dram.queue_stall"] == 0 || d.Counters.Snapshot()["dram.row_conflict"] == 0 {
		t.Errorf("the bursts missed a path: %s", d.Counters.String())
	}
}
