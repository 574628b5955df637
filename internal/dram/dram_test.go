package dram

import (
	"testing"

	"hpmp/internal/addr"
)

func TestRowHitFasterThanMiss(t *testing.T) {
	d := New()

	// First access to a closed bank: RCD + CAS.
	done1 := d.Access(0x1000, 0, false)
	wantFirst := tRCD + tCAS + tBurst + tController
	if done1 != wantFirst {
		t.Errorf("first access latency = %d, want %d", done1, wantFirst)
	}

	// Same row, after the bank is free: row hit, CAS only.
	now := done1
	done2 := d.Access(0x1040, now, false)
	wantHit := tCAS + tBurst + tController
	if done2-now != wantHit {
		t.Errorf("row hit latency = %d, want %d", done2-now, wantHit)
	}

	// Different row, same bank: conflict, RP + RCD + CAS.
	conflictPA := addr.PA(0x1000 + rowBytes*banks)
	now = done2
	done3 := d.Access(conflictPA, now, false)
	wantConf := tRP + tRCD + tCAS + tBurst + tController
	if done3-now != wantConf {
		t.Errorf("row conflict latency = %d, want %d", done3-now, wantConf)
	}
}

func TestBankBusySerializes(t *testing.T) {
	d := New()
	// Two back-to-back requests to the same bank at the same cycle: the
	// second must wait for the first.
	d1 := d.Access(0x0, 0, false)
	d2 := d.Access(0x40, 0, false) // same row, same bank
	if d2 <= d1 {
		t.Errorf("second access (%d) must finish after first (%d)", d2, d1)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	d := New()
	// Addresses one row-chunk apart map to different banks.
	d1 := d.Access(0x0, 0, false)
	d2 := d.Access(addr.PA(rowBytes), 0, false)
	if d1 != d2 {
		t.Errorf("independent banks should have equal first-access time: %d vs %d", d1, d2)
	}
}

func TestQueueDepthStalls(t *testing.T) {
	d := New()
	// Issue queueDepth+1 requests at cycle 0 to distinct banks; the last
	// must stall on the controller queue even though its bank is free: it
	// starts when the oldest request completes.
	done1 := d.Access(0x0, 0, false)
	for i := 1; i < queueDepth; i++ {
		d.Access(addr.PA(i*rowBytes), 0, false)
	}
	last := d.Access(addr.PA(queueDepth*rowBytes), 0, false)
	if want := done1 + tRCD + tCAS + tBurst + tController; last != want {
		t.Errorf("request %d, issued with the queue full, done at %d, want %d (queued behind the first)",
			queueDepth+1, last, want)
	}
}

func TestReset(t *testing.T) {
	d := New()
	first := d.Access(0x1000, 0, false)
	d.Reset()
	// After reset, the same row must be an "empty" activation again at
	// cycle 0, not a row hit or a wait for the bank.
	if again := d.Access(0x1000, 0, false); again != first {
		t.Errorf("access after Reset done at %d, want %d (a closed row, an idle bank)", again, first)
	}
}

func TestStreamingRotatesBanks(t *testing.T) {
	d := New()
	seen := make(map[int]bool)
	for i := uint64(0); i < banks; i++ {
		bank, _ := d.bankAndRow(addr.PA(i * rowBytes))
		seen[bank] = true
	}
	if len(seen) != banks {
		t.Errorf("row-chunk stride should touch every bank, got %d/%d", len(seen), banks)
	}
}

// TestAccessDoesNotAllocate pins Access at zero allocations: the
// controller queue is compacted in place. Each run is a burst that fills
// the queue, stalls on it and then drains it, so every queue path runs.
func TestAccessDoesNotAllocate(t *testing.T) {
	d := New()
	conflict := tRP + tRCD + tCAS + tBurst + tController
	var now uint64
	var waited, conflicts int
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			switch lat := d.Access(addr.PA(uint64(i)*rowBytes*5), now, i%3 == 0) - now; {
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
