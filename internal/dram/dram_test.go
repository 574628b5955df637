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
}

func TestQueueDepthStalls(t *testing.T) {
	cfg := Default()
	cfg.QueueDepth = 2
	d := New(cfg)
	// Issue 3 requests at cycle 0 to distinct banks; the third must stall on
	// the controller queue even though its bank is free: it starts when the
	// oldest request completes.
	done1 := d.Access(0x0, 0, false)
	d.Access(addr.PA(cfg.RowBytes), 0, false)
	done3 := d.Access(addr.PA(2*cfg.RowBytes), 0, false)
	if want := done1 + cfg.TRCD + cfg.TCAS + cfg.TBurst + cfg.TController; done3 != want {
		t.Errorf("third concurrent request done at %d, want %d (queued behind the first)", done3, want)
	}
}

func TestReset(t *testing.T) {
	d := New(Default())
	first := d.Access(0x1000, 0, false)
	d.Reset()
	// After reset, the same row must be an "empty" activation again at
	// cycle 0, not a row hit or a wait for the bank.
	if again := d.Access(0x1000, 0, false); again != first {
		t.Errorf("access after Reset done at %d, want %d (a closed row, an idle bank)", again, first)
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

// TestAccessDoesNotAllocate pins Access at zero allocations: the
// controller queue is compacted in place. Each run is a burst that fills
// the queue, stalls on it and then drains it, so every queue path runs.
func TestAccessDoesNotAllocate(t *testing.T) {
	d := New(Default())
	cfg := d.cfg
	conflict := cfg.TRP + cfg.TRCD + cfg.TCAS + cfg.TBurst + cfg.TController
	var now uint64
	var waited, conflicts int
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			switch lat := d.Access(addr.PA(uint64(i)*cfg.RowBytes*5), now, i%3 == 0) - now; {
			case lat > conflict:
				waited++
			case lat == conflict:
				conflicts++
			}
			if i%16 == 15 {
				now += 500
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Access allocates: %v allocations per 64-access burst, want 0", allocs)
	}
	if waited == 0 || conflicts == 0 {
		t.Errorf("the bursts missed a path: %d accesses waited, %d row conflicts", waited, conflicts)
	}
}
