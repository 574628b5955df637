// Equivalence gate for the batched access entry point: AccessBatch must be
// observably identical — per-access Results, merged counters, cycle totals —
// to the same reference stream issued as N sequential Access calls,
// including faults landing in the middle of a batch.
package integration

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/stats"
)

// allCounters merges every counter the stack keeps — core, MMU, TLBs, page
// walker, caches, DRAM, checker, permission-table walker, monitor, kernel —
// into one deterministic "name=value" string.
func allCounters(mach *cpu.Machine, mon *monitor.Monitor, k *kernel.Kernel) string {
	var all stats.Counters
	for _, c := range []*stats.Counters{
		&mach.Core.Counters,
		&mach.MMU.Counters,
		&mach.MMU.ITLB.Counters,
		&mach.MMU.DTLB.Counters,
		&mach.MMU.STLB.Counters,
		&mach.MMU.Walker.Counters,
		&mach.Hier.Counters,
		&mach.Checker.Counters,
		&mach.Checker.Walker.Counters,
		&mon.Counters,
		&k.Counters,
	} {
		all.Merge(c)
	}
	return all.String()
}

// batchRun captures everything observable about one batch-workload run.
type batchRun struct {
	results  []mmu.Result
	counters string
	cycles   uint64
}

const batchHeapPages = 16

// batchRefs builds a deterministic mixed reference stream: same-page
// streaks, page hops, and all three fault flavours scattered mid-stream so
// the batch must carry on past faulted references.
func batchRefs(heap, roVA, evilVA, unmappedVA addr.VA) []mmu.AccessReq {
	var refs []mmu.AccessReq
	lcg := uint64(0x123456789abcdef)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33
	}
	for i := 0; i < 500; i++ {
		switch next() % 12 {
		case 0:
			refs = append(refs, mmu.AccessReq{VA: roVA, Kind: perm.Write, Priv: perm.U}) // prot fault
		case 1:
			refs = append(refs, mmu.AccessReq{VA: evilVA, Kind: perm.Read, Priv: perm.U}) // access fault
		case 2:
			refs = append(refs, mmu.AccessReq{VA: unmappedVA, Kind: perm.Read, Priv: perm.U}) // page fault
		default:
			k := perm.Access(perm.Read)
			if next()%3 == 0 {
				k = perm.Write
			}
			page := heap + addr.VA(next()%batchHeapPages)*addr.PageSize
			refs = append(refs, mmu.AccessReq{VA: page + addr.VA((next()%500)*8), Kind: k, Priv: perm.U})
		}
	}
	return refs
}

// runBatchWorkload boots a fresh stack, pre-faults a small heap, sets up a
// read-only alias and a forged monitor-owned mapping, then drives the fixed
// reference stream either through one AccessBatch call or through the
// equivalent sequential Access loop.
func runBatchWorkload(t *testing.T, batched bool) batchRun {
	t.Helper()
	mach, mon, k := bootStack(t, monitor.ModeHPMP)
	p, err := k.Spawn(kernel.Image{Name: "batch", TextPages: 4, DataPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	env, err := k.NewEnv(p)
	if err != nil {
		t.Fatal(err)
	}

	heap := env.Alloc(batchHeapPages * addr.PageSize)
	if err := env.Touch(heap, batchHeapPages*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	var res mmu.Result
	if err := mach.MMU.Access(heap, perm.Read, perm.U, mach.Core.Now, &res); err != nil {
		t.Fatal(err)
	}
	roVA := addr.VA(0x7300_0000)
	p.AddVMAAt(roVA, 1, perm.R)
	if err := p.Table.Map(roVA, res.PA.PageBase(), perm.R, true); err != nil {
		t.Fatal(err)
	}
	evilVA := addr.VA(0x7400_0000)
	p.AddVMAAt(evilVA, 1, perm.RW)
	if err := p.Table.Map(evilVA, 0x10_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	unmappedVA := addr.VA(0x7f00_0000)

	refs := batchRefs(heap, roVA, evilVA, unmappedVA)
	out := make([]mmu.Result, len(refs))
	if batched {
		end, err := mach.MMU.AccessBatch(refs, out, mach.Core.Now)
		if err != nil {
			t.Fatal(err)
		}
		mach.Core.Now = end
	} else {
		now := mach.Core.Now
		for i := range refs {
			if err := mach.MMU.Access(refs[i].VA, refs[i].Kind, refs[i].Priv, now, &out[i]); err != nil {
				t.Fatal(err)
			}
			now += out[i].Latency
		}
		mach.Core.Now = now
	}
	return batchRun{results: out, counters: allCounters(mach, mon, k), cycles: mach.Core.Now}
}

// TestAccessBatchMatchesSequential: a batch must be byte-identical to the
// sequential loop — and the workload must actually have faulted mid-batch
// and kept going.
func TestAccessBatchMatchesSequential(t *testing.T) {
	batch := runBatchWorkload(t, true)
	seq := runBatchWorkload(t, false)

	if len(batch.results) != len(seq.results) {
		t.Fatalf("result counts differ: batch %d, sequential %d", len(batch.results), len(seq.results))
	}
	for i := range batch.results {
		if batch.results[i] != seq.results[i] {
			t.Fatalf("result %d differs:\n  batch: %+v\n  seq:   %+v", i, batch.results[i], seq.results[i])
		}
	}
	if batch.cycles != seq.cycles {
		t.Errorf("cycle totals differ: batch %d, sequential %d", batch.cycles, seq.cycles)
	}
	if batch.counters != seq.counters {
		t.Errorf("counters differ:\nbatch: %s\nseq:   %s", batch.counters, seq.counters)
	}

	// The gate is only meaningful if faults landed mid-batch and the batch
	// carried on: find a faulted result followed by a success.
	var page, prot, access, faultThenOK bool
	for i, r := range batch.results {
		page = page || r.PageFault
		prot = prot || r.ProtFault
		access = access || r.AccessFault
		if r.Faulted() && i+1 < len(batch.results) && !batch.results[i+1].Faulted() {
			faultThenOK = true
		}
	}
	if !page || !prot || !access {
		t.Errorf("stream must include all fault flavours (page=%v prot=%v access=%v)", page, prot, access)
	}
	if !faultThenOK {
		t.Error("no faulted reference was followed by a successful one — batch continuation untested")
	}
}
