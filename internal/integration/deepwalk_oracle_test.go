// Oracle test for the deep (3-level) PMPT walker: every hardware walk over
// a mixed-granularity permission landscape, with the PMPTW cache enabled
// and periodically invalidated, must agree with the software lookup
// (Table.LookupSW) in the style of Cheang et al., "Verifying RISC-V
// Physical Memory Protection".
package integration

import (
	"strings"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/memport"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
	"hpmp/internal/pmpt"
)

// TestDeepWalkerOracle drives the 3-level PMPT walker (Mode extension,
// 32 GiB region) through a deterministic probe mix — repeats that hit the
// enabled PMPTW cache, strides across huge/pointer/invalid spans, table
// edits followed by invalidations — and cross-checks every hardware walk
// against the software lookup. The mix must exercise every pmptw counter,
// so no walker branch goes untested.
func TestDeepWalkerOracle(t *testing.T) {
	mem := phys.New(64 * addr.GiB) // sparse: only touched frames materialize
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0x10_0000, Size: 64 * addr.MiB}, false)
	region := addr.Range{Base: 0, Size: 32 * addr.GiB}
	tbl, err := pmpt.NewTableMode(mem, alloc, region, pmpt.Mode3Level)
	if err != nil {
		t.Fatal(err)
	}
	// A mixed-granularity permission landscape: a 32 MiB huge span, a paged
	// 1 MiB window beyond the 2-level reach, a leaf-entry span, and a single
	// read-only page.
	if err := tbl.SetRangePerm(addr.Range{Base: 0x1000_0000, Size: pmpt.RootEntrySpan}, perm.RWX); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetRangePerm(addr.Range{Base: 20 * addr.GiB, Size: addr.MiB}, perm.RW); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetRangePerm(addr.Range{Base: 24 * addr.GiB, Size: pmpt.LeafEntrySpan}, perm.R); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetPagePerm(30*addr.GiB, perm.R); err != nil {
		t.Fatal(err)
	}

	cache := pmpt.NewWalkerCache(8)
	w := pmpt.NewWalker(&memport.Flat{Mem: mem, Latency: 9}, cache)

	probeBases := []addr.PA{
		0x1000_0000,            // huge root span
		20 * addr.GiB,          // deep paged window
		24 * addr.GiB,          // leaf-entry span
		30 * addr.GiB,          // single page
		0x5000_0000,            // invalid
		31*addr.GiB + 0x12_000, // invalid, deep
	}

	now := uint64(0)
	walk := func(pa addr.PA) {
		t.Helper()
		res, err := w.WalkDeep(tbl.RootBase(), region, pmpt.Mode3Level, pa, now)
		if err != nil {
			t.Fatal(err)
		}
		now += res.Latency + 1
		// The hardware walk must agree with the software lookup in both
		// validity and permission.
		swPerm, err := tbl.LookupSW(pa)
		if err != nil {
			t.Fatal(err)
		}
		hwPerm := perm.None
		if res.Valid {
			hwPerm = res.Perm
		}
		if hwPerm != swPerm {
			t.Fatalf("walk/oracle disagree at %v: hw %v (valid=%v) sw %v", pa, res.Perm, res.Valid, swPerm)
		}
	}

	lcg := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33
	}
	for i := 0; i < 4000; i++ {
		switch r := next() % 100; {
		case r < 55:
			// Streaks over one base: the cache's bread and butter —
			// repeated root/leaf pmpte probes.
			base := probeBases[next()%uint64(len(probeBases))]
			for j := uint64(0); j < 1+next()%4; j++ {
				walk(base + addr.PA((next()%256)*addr.PageSize))
			}
		case r < 90:
			// Stride across bases: LRU churn in the 8-entry cache.
			base := probeBases[next()%uint64(len(probeBases))]
			stride := addr.PA(1+next()%7) * pmpt.LeafEntrySpan
			pa := base
			for j := 0; j < 3; j++ {
				walk(pa)
				pa += stride
				if !region.Contains(pa) {
					pa = base
				}
			}
		case r < 96:
			// Table edit + mandatory invalidation (the §5 flush rule): no
			// stale pmpte may survive it.
			p := perm.R
			if next()%2 == 0 {
				p = perm.RW
			}
			pg := 20*addr.GiB + addr.PA((next()%256)*addr.PageSize)
			if err := tbl.SetPagePerm(pg, p); err != nil {
				t.Fatal(err)
			}
			cache.FlushAll()
		default:
			cache.FlushAll()
		}
	}

	counters := w.Counters.String()
	for _, want := range []string{"pmptw.cache_hit=", "pmptw.mem_ref=", "pmptw.huge=", "pmptw.invalid=", "pmptw.walk="} {
		if !strings.Contains(counters+" ", want) || strings.Contains(counters+" ", want+"0 ") {
			t.Errorf("workload never exercised %q (counters: %s)", want, counters)
		}
	}
}
