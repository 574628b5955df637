package pmpt

import (
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/memport"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
)

// FuzzPMPTWalk cross-checks the hardware PMPTW state machine against the
// software oracle at every table depth: a table of the fuzz-chosen mode
// is programmed with fuzz-derived page and range permissions (exercising
// the Fig. 6-c non-leaf pmpte and Fig. 6-d leaf-nibble formats, huge
// entries at every level included), then a whole aligned span is revoked,
// and Walker.WalkDeep and Table.LookupSW must agree on every sampled
// address, with every sample inside the revoked span denied. The table
// frames start at PA 0, so a revoke mistaken for a pointer (to PA 0) reads
// live pmptes instead of zeros. The address-register encoding is
// round-tripped on the way.
func FuzzPMPTWalk(f *testing.F) {
	f.Add(uint64(1), uint64(0x1234), uint8(7), uint8(3), uint8(0))
	f.Add(uint64(0xdeadbeef), uint64(0), uint8(0), uint8(6), uint8(0))
	f.Add(uint64(42), ^uint64(0), uint8(2), uint8(5), uint8(0))
	// One seed per mode (2, 3 and 4 levels) whose ranges revoke.
	f.Add(uint64(7), uint64(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(9), uint64(1), uint8(0), uint8(7), uint8(1))
	f.Add(uint64(11), uint64(2), uint8(4), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed, sel uint64, p1, p2, depth uint8) {
		mode := ModeFor(2 + int(depth%3))
		levels := mode.Levels()
		// Two root entries' worth of region: room for a huge entry at
		// every level.
		region := addr.Range{Base: 0x100_0000, Size: 2 * entrySpan(levels-1)}
		mem := phys.New(64 * addr.MiB)
		alloc := phys.NewFrameAllocator(addr.Range{Base: 0, Size: 4 * addr.MiB}, false)
		tbl, err := NewTableMode(mem, alloc, region, mode)
		if err != nil {
			t.Fatal(err)
		}

		v, err := EncodeAddrReg(tbl.RootBase(), mode)
		if err != nil {
			t.Fatal(err)
		}
		if rb, m := DecodeAddrReg(v); rb != tbl.RootBase() || m != mode {
			t.Errorf("addr reg round trip: got (%v, %v), want (%v, %v)",
				rb, m, tbl.RootBase(), mode)
		}

		lcg := seed | 1
		next := func(n uint64) uint64 {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			return (lcg >> 33) % n
		}
		perms := []perm.Perm{
			perm.Perm(p1 & 0x7), perm.Perm(p2 & 0x7),
			perm.None, perm.R, perm.RW, perm.RWX, perm.RX,
		}
		pages := region.Size / addr.PageSize
		// span returns an input-placed range covering one aligned entry at
		// a random non-leaf level.
		span := func() addr.Range {
			s := entrySpan(1 + int(next(uint64(levels-1))))
			return addr.Range{Base: region.Base + addr.PA(next(region.Size/s)*s), Size: s}
		}

		var sample []addr.PA
		// Scattered single-page permissions.
		for i := 0; i < 24; i++ {
			pa := region.Base + addr.PA(next(pages))*addr.PageSize
			if err := tbl.SetPagePerm(pa, perms[next(uint64(len(perms)))]); err != nil {
				t.Fatal(err)
			}
			sample = append(sample, pa, pa+addr.PageSize, pa+addr.PageSize/2)
		}
		// One huge-capable range, one unaligned range and one forced-paged
		// range, all placed by the input; any of them may revoke.
		huge := span()
		if sel%2 == 1 {
			huge.Base = region.Base + addr.PA(region.Size-huge.Size)
		}
		if err := tbl.SetRangePerm(huge, perms[next(uint64(len(perms)))]); err != nil {
			t.Fatal(err)
		}
		unaligned := addr.Range{
			Base: region.Base + addr.PA(next(pages/2))*addr.PageSize,
			Size: (1 + next(64)) * addr.PageSize,
		}
		if err := tbl.SetRangePerm(unaligned, perms[next(uint64(len(perms)))]); err != nil {
			t.Fatal(err)
		}
		paged := addr.Range{
			Base: region.Base + addr.PA(next(pages/2))*addr.PageSize,
			Size: (1 + next(64)) * addr.PageSize,
		}
		if err := tbl.SetRangePermPaged(paged, perms[next(uint64(len(perms)))]); err != nil {
			t.Fatal(err)
		}
		sample = append(sample,
			huge.Base, huge.Base+addr.PA(huge.Size/2), huge.End()-8,
			unaligned.Base, unaligned.End()-8, paged.Base, paged.End()-8)
		// Revoke a whole aligned span last: all of it must deny.
		revoked := span()
		if sel%3 == 0 {
			revoked = huge
		}
		if err := tbl.SetRangePerm(revoked, perm.None); err != nil {
			t.Fatal(err)
		}
		sample = append(sample, revoked.Base, revoked.Base+addr.PA(revoked.Size/2), revoked.End()-8)
		// Random probes, including never-programmed addresses.
		for i := 0; i < 32; i++ {
			sample = append(sample, region.Base+addr.PA(next(region.Size/8))*8)
		}

		w := NewWalker(&memport.Flat{Mem: mem, Latency: 3}, nil)
		for _, pa := range sample {
			want, err := tbl.LookupSW(pa)
			if err != nil {
				t.Fatalf("LookupSW(%v): %v", pa, err)
			}
			res, err := w.WalkDeep(tbl.RootBase(), region, mode, pa, 0)
			if err != nil {
				t.Fatalf("WalkDeep(%v): %v", pa, err)
			}
			if res.Perm != want {
				t.Errorf("walker disagrees with oracle at %v: walk=%v, sw=%v", pa, res.Perm, want)
			}
			if !res.Valid && want != perm.None {
				t.Errorf("invalid walk at %v but oracle grants %v", pa, want)
			}
			if revoked.Contains(pa) && (want != perm.None || res.Valid) {
				t.Errorf("revoked %v still reads %v (valid=%v) at %v", revoked, want, res.Valid, pa)
			}
		}
	})
}

// FuzzSetRangePermPaged drives a Table and the page-by-page reference
// builder (refTable) through the same fuzz-chosen sequence of grants and
// revokes, at a fuzz-chosen depth, and requires identical table memory,
// table pages, allocator state and traced words after every step. Paged
// ranges land anywhere in the first 256 MiB or across the 16 GiB level-2
// boundary, at page, 64 KiB or 32 MiB scale; huge grants and revokes of
// whole aligned spans in between give the paged ranges huge entries to
// demote and freed sub-tables to rebuild.
func FuzzSetRangePermPaged(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(8))
	f.Add(uint64(0xfeed), uint8(1), uint8(12))
	f.Add(uint64(77), uint8(2), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, depth, steps uint8) {
		mode := ModeFor(2 + int(depth%3))
		size := uint64(16 * addr.GiB)
		if mode != Mode2Level {
			size = 32 * addr.GiB // room for level-2 huge entries
		}
		region := addr.Range{Base: 0x40_0000_0000 + 4*addr.MiB + 12*addr.KiB, Size: size}
		p := newTablePair(t, region, mode)

		lcg := seed | 1
		next := func(n uint64) uint64 {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			return (lcg >> 33) % n
		}
		perms := []perm.Perm{perm.None, perm.R, perm.RW, perm.RX, perm.RWX, perm.X}
		for i := 0; i < int(steps%24); i++ {
			pm := perms[next(uint64(len(perms)))]
			traced := next(2) == 0
			if next(5) == 0 {
				// A whole aligned span at a level the region can hold.
				level := 1 + int(next(uint64(min(mode.Levels()-1, 2))))
				s := entrySpan(level)
				span := addr.Range{Base: region.Base + addr.PA(next(size/s)*s), Size: s}
				p.do(t, "range", span, pm, traced)
				continue
			}
			off := next(256 * addr.MiB)
			if mode != Mode2Level && next(4) == 0 {
				off += 16*addr.GiB - 128*addr.MiB
			}
			off = addr.AlignDown(off, addr.PageSize)
			var n uint64
			switch next(3) {
			case 0:
				n = (1 + next(40)) * addr.PageSize
			case 1:
				n = (1 + next(1100)) * LeafEntrySpan
			default:
				n = (1 + next(3)) * RootEntrySpan
			}
			if next(2) == 0 {
				off = addr.AlignDown(off, LeafEntrySpan)
			}
			n = min(n, size-off)
			p.do(t, "paged", addr.Range{Base: region.Base + addr.PA(off), Size: n}, pm, traced)
		}
	})
}
