package pt

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hpmp/internal/addr"
	"hpmp/internal/perm"
	"hpmp/internal/phys"
)

func newEnv(t *testing.T, mode addr.Mode) (*Table, *phys.Memory, *phys.FrameAllocator) {
	t.Helper()
	mem := phys.New(256 * addr.MiB)
	ptAlloc := phys.NewFrameAllocator(addr.Range{Base: 0x100000, Size: 8 * addr.MiB}, false)
	tbl, err := New(mem, ptAlloc, mode)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mem, ptAlloc
}

func TestPTEEncodeDecode(t *testing.T) {
	leaf := MakeLeaf(0x8000_3000, perm.RW, true)
	if !leaf.Valid() || !leaf.Leaf() || leaf.Perm() != perm.RW || !leaf.User() {
		t.Errorf("leaf wrong: %v", leaf)
	}
	if leaf.Target() != 0x8000_3000 {
		t.Errorf("Target = %#x", uint64(leaf.Target()))
	}
	ptr := MakePointer(0x4000)
	if !ptr.Valid() || ptr.Leaf() || ptr.Target() != 0x4000 {
		t.Errorf("pointer wrong: %v", ptr)
	}
}

// Property: PTE leaf encode/decode round-trips frame, perm, and user bit.
func TestPTERoundTripQuick(t *testing.T) {
	f := func(frame uint32, pbits uint8, user bool) bool {
		pa := addr.PA(uint64(frame) << addr.PageShift)
		p := perm.Perm(pbits&0x7) | perm.R // leaf needs ≥1 perm bit
		e := MakeLeaf(pa, p, user)
		return e.Valid() && e.Leaf() && e.Perm() == p && e.User() == user && e.Target() == pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapTranslate(t *testing.T) {
	tbl, _, _ := newEnv(t, addr.Sv39)
	va := addr.VA(0x40_0000_0000 - 0x1000) // high canonical positive VA
	va = addr.VA(0x10_0000_0000)
	pa := addr.PA(0x80_0000)
	if err := tbl.Map(va, pa, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	tr, err := tbl.TranslateSW(va + 0x123)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PA != pa+0x123 || tr.Perm != perm.RW || !tr.User {
		t.Errorf("translation wrong: %+v", tr)
	}
}

func TestTranslateFaults(t *testing.T) {
	tbl, _, _ := newEnv(t, addr.Sv39)
	_, err := tbl.TranslateSW(0x1234_5000)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want FaultError, got %v", err)
	}
	if fe.Level != 2 {
		t.Errorf("cold table faults at the root level, got %d", fe.Level)
	}
}

func TestUnmapAndProtect(t *testing.T) {
	tbl, _, _ := newEnv(t, addr.Sv39)
	va, pa := addr.VA(0x7000_0000), addr.PA(0x90_0000)
	if err := tbl.Map(va, pa, perm.RWX, false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Protect(va, perm.R); err != nil {
		t.Fatal(err)
	}
	tr, _ := tbl.TranslateSW(va)
	if tr.Perm != perm.R {
		t.Errorf("after Protect, perm = %v", tr.Perm)
	}
	got, err := tbl.Unmap(va)
	if err != nil || got != pa {
		t.Errorf("Unmap = %v, %v", got, err)
	}
	if _, err := tbl.TranslateSW(va); err == nil {
		t.Error("translate after unmap must fault")
	}
}

// Lookup reports a 4 KiB leaf exactly while one maps the page, whatever the
// offset, and allocates nothing, also for a page that was never mapped:
// the replay engine asks it once per event.
func TestLookup(t *testing.T) {
	tbl, _, _ := newEnv(t, addr.Sv39)
	va, pa := addr.VA(0x7000_0000), addr.PA(0x90_0000)
	if err := tbl.Map(va, pa, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapSuper(addr.VA(0x4000_0000), 0x800_0000, 1, perm.R, false); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		va     addr.VA
		mapped bool
	}{
		{va, true},
		{va + 0xff8, true},
		{va + addr.PageSize, false},      // same leaf table, empty PTE
		{addr.VA(0x1_0000_0000), false},  // no intermediate table
		{addr.VA(0x4000_1000), false},    // under a 2 MiB superpage
		{addr.VA(0x80_7000_0000), false}, // non-canonical, same low 39 bits as va
	} {
		e, ok := tbl.Lookup(c.va)
		if ok != c.mapped || ok && (e.Target() != pa || e.Perm() != perm.RW || !e.User()) {
			t.Errorf("Lookup(%v) = %v, %v; want mapped=%v to %v", c.va, e, ok, c.mapped, pa)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { tbl.Lookup(addr.VA(0x1_0000_0000)) }); allocs != 0 {
		t.Errorf("Lookup of an unmapped page allocates %.0f objects, want 0", allocs)
	}
	if _, err := tbl.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(va); ok {
		t.Error("Lookup finds a leaf after Unmap")
	}
}

func TestNonCanonicalRejected(t *testing.T) {
	tbl, _, _ := newEnv(t, addr.Sv39)
	if err := tbl.Map(addr.VA(0x40_0000_0000), 0x1000, perm.R, false); err == nil {
		t.Error("non-canonical VA must be rejected")
	}
}

func TestWalkPathLengths(t *testing.T) {
	for _, tc := range []struct {
		mode   addr.Mode
		levels int
	}{{addr.Sv39, 3}, {addr.Sv48, 4}, {addr.Sv57, 5}} {
		tbl, _, _ := newEnv(t, tc.mode)
		va := addr.VA(0x10_0000)
		if err := tbl.Map(va, 0x20_0000, perm.R, false); err != nil {
			t.Fatal(err)
		}
		steps, err := tbl.WalkPath(va)
		if err != nil {
			t.Fatal(err)
		}
		// A mapped 4 KiB page needs exactly Levels references — the paper's
		// "three references for page table pages" for Sv39 (Fig. 2-a).
		if len(steps) != tc.levels {
			t.Errorf("%v walk = %d steps, want %d", tc.mode, len(steps), tc.levels)
		}
		// The first PTE is in the root page, and each one is in a PT page
		// of its own level: a new page per step.
		if steps[0].PageBase() != tbl.Root() {
			t.Errorf("%v first PTE %v not in the root page %v", tc.mode, steps[0], tbl.Root())
		}
		pages := tbl.PTPages()
		for i, s := range steps {
			if !slices.Contains(pages, s.PageBase()) {
				t.Errorf("%v step %d: PTE %v not inside a PT page", tc.mode, i, s)
			}
			if i > 0 && s.PageBase() == steps[i-1].PageBase() {
				t.Errorf("%v steps %d and %d share PT page %v", tc.mode, i-1, i, s.PageBase())
			}
		}
	}
}

func TestWalkPathTruncatesAtFault(t *testing.T) {
	tbl, _, _ := newEnv(t, addr.Sv39)
	steps, err := tbl.WalkPath(0x5555_5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Errorf("unmapped VA should stop at the root: %d steps", len(steps))
	}
}

func TestPTPagesContiguousWhenAllocatorIs(t *testing.T) {
	// The §5 property Penglai-HPMP depends on: a sequential PT allocator
	// puts every PT page in one contiguous region.
	tbl, _, _ := newEnv(t, addr.Sv39)
	for i := 0; i < 64; i++ {
		va := addr.VA(uint64(i) * addr.GiB / 2) // spread across L2 entries
		if err := tbl.Map(va, addr.PA(0x100_0000+uint64(i)*addr.PageSize), perm.RW, true); err != nil {
			t.Fatal(err)
		}
	}
	pages := tbl.PTPages()
	if len(pages) < 3 {
		t.Fatalf("expected multiple PT pages, got %d", len(pages))
	}
	lo, hi := pages[0], pages[0]
	for _, p := range pages {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	span := uint64(hi-lo) + addr.PageSize
	if span != uint64(len(pages))*addr.PageSize {
		t.Errorf("PT pages not contiguous: %d pages span %#x bytes", len(pages), span)
	}
}

func TestMapOverwrite(t *testing.T) {
	tbl, _, _ := newEnv(t, addr.Sv39)
	va := addr.VA(0x1000)
	tbl.Map(va, 0x10_0000, perm.R, false)
	tbl.Map(va, 0x20_0000, perm.RW, false)
	tr, _ := tbl.TranslateSW(va)
	if tr.PA != 0x20_0000 || tr.Perm != perm.RW {
		t.Errorf("remap did not take effect: %+v", tr)
	}
}

// Property: Map then TranslateSW returns exactly the mapped frame plus
// offset, for arbitrary canonical VAs.
func TestMapTranslateQuick(t *testing.T) {
	tbl, _, _ := newEnv(t, addr.Sv39)
	f := func(vpn uint32, frame uint16, off uint16) bool {
		va := addr.VA(uint64(vpn) << addr.PageShift) // ≤ 2^44, canonical for Sv39? 2^32<<12 = 2^44 > 2^38
		va &= (1 << 38) - 1                          // keep positive-canonical
		va = va.PageBase()
		pa := addr.PA(0x100_0000 + uint64(frame)<<addr.PageShift)
		if err := tbl.Map(va, pa, perm.RW, true); err != nil {
			return false
		}
		tr, err := tbl.TranslateSW(va + addr.VA(uint64(off)%addr.PageSize))
		return err == nil && tr.PA == pa+addr.PA(uint64(off)%addr.PageSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMapSuper(t *testing.T) {
	tbl, _, _ := newEnv(t, addr.Sv39)
	// 2 MiB superpage.
	va2m, pa2m := addr.VA(0x4000_0000), addr.PA(0x800_0000)
	if err := tbl.MapSuper(va2m, pa2m, 1, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	steps, err := tbl.WalkPath(va2m + 0x12_3456)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Errorf("2 MiB superpage walk = %d steps, want 2", len(steps))
	}
	// 1 GiB superpage in another slot.
	if err := tbl.MapSuper(addr.VA(addr.GiB), addr.PA(0), 2, perm.R, false); err != nil {
		t.Fatal(err)
	}
	steps, _ = tbl.WalkPath(addr.VA(addr.GiB) + 0xabc)
	if len(steps) != 1 {
		t.Errorf("1 GiB superpage walk = %d steps, want 1", len(steps))
	}
	// Misaligned and invalid-level requests fail.
	if err := tbl.MapSuper(va2m+addr.PageSize, pa2m, 1, perm.R, false); err == nil {
		t.Error("misaligned superpage must fail")
	}
	if err := tbl.MapSuper(va2m, pa2m, 0, perm.R, false); err == nil {
		t.Error("level 0 is not a superpage")
	}
	if err := tbl.MapSuper(va2m, pa2m, 3, perm.R, false); err == nil {
		t.Error("level 3 exceeds Sv39")
	}
	// A 4 KiB Map under an existing superpage is rejected.
	if err := tbl.Map(va2m+0x1000, 0x900_0000, perm.R, false); err == nil {
		t.Error("mapping under a superpage must fail")
	}
}

func TestPTEString(t *testing.T) {
	if PTE(0).String() != "PTE(invalid)" {
		t.Errorf("invalid PTE string: %s", PTE(0))
	}
	ptr := MakePointer(0x4000)
	if got := ptr.String(); got != "PTE(ptr→0x4000)" {
		t.Errorf("pointer string: %s", got)
	}
	leaf := MakeLeaf(0x5000, perm.RW, true)
	if got := leaf.String(); got != "PTE(0x5000 rw- u=true)" {
		t.Errorf("leaf string: %s", got)
	}
}

func TestErrorBranches(t *testing.T) {
	mem := phys.New(256 * addr.MiB)
	alloc := phys.NewFrameAllocator(addr.Range{Base: 0x100000, Size: 8 * addr.MiB}, false)
	if _, err := New(mem, alloc, addr.Bare); err == nil {
		t.Error("Bare mode has no page table")
	}
	tbl, _ := New(mem, alloc, addr.Sv39)
	if _, err := tbl.Unmap(0x1234_0000); err == nil {
		t.Error("Unmap of unmapped VA must fail")
	}
	if err := tbl.Protect(0x1234_0000, perm.R); err == nil {
		t.Error("Protect of unmapped VA must fail")
	}
	// TranslateSW through a superpage reports the superpage error.
	tbl.MapSuper(addr.VA(0x4000_0000), 0x800_0000, 1, perm.RW, true)
	if _, err := tbl.TranslateSW(addr.VA(0x4000_0000)); err == nil {
		t.Error("TranslateSW is a 4 KiB oracle; superpages must be reported")
	}
	// Exhausted PT allocator surfaces cleanly.
	tiny := phys.NewFrameAllocator(addr.Range{Base: 0x900000, Size: addr.PageSize}, false)
	tbl2, err := New(mem, tiny, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Map(0x1000, 0x800_0000, perm.R, false); err == nil {
		t.Error("Map with an exhausted PT pool must fail")
	}
	if _, err := New(mem, tiny, addr.Sv39); err == nil {
		t.Error("New with an exhausted pool must fail")
	}
}

func TestFaultErrorMessage(t *testing.T) {
	fe := &FaultError{VA: 0x1000, Level: 2}
	if fe.Error() == "" {
		t.Error("FaultError must render")
	}
}

// listFrames is a FrameSource over a fixed list of frames.
type listFrames []addr.PA

func (l *listFrames) Alloc() (addr.PA, error) {
	if len(*l) == 0 {
		return 0, errors.New("out of frames")
	}
	pa := (*l)[0]
	*l = (*l)[1:]
	return pa, nil
}

func TestSv39x4Root(t *testing.T) {
	mem := phys.New(256 * addr.MiB)
	tbl, err := New(mem, &listFrames{0x10000, 0x11000, 0x12000, 0x13000, 0x20000, 0x21000}, addr.Sv39x4)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Root() != 0x10000 || len(tbl.PTPages()) != 4 {
		t.Fatalf("root %v, pages %v; want a 4-page root at 0x10000", tbl.Root(), tbl.PTPages())
	}
	// GPA 600 GiB indexes root entry 600, in the root's third page.
	gpa := addr.VA(600 * addr.GiB)
	if err := tbl.Map(gpa, 0x900_0000, perm.RW, true); err != nil {
		t.Fatal(err)
	}
	path, err := tbl.WalkPath(gpa)
	if err != nil || len(path) != 3 || path[0] != 0x10000+600*8 {
		t.Errorf("walk path %+v, %v", path, err)
	}
	if err := tbl.Map(1<<41, 0x900_0000, perm.RW, true); err == nil {
		t.Error("a GPA with bit 41 set must be rejected")
	}
	// The four root pages must be contiguous.
	if _, err := New(mem, &listFrames{0x10000, 0x11000, 0x13000, 0x14000}, addr.Sv39x4); err == nil {
		t.Error("a non-contiguous Sv39x4 root must be rejected")
	}
}

// offsetStore is a Store whose addresses are shifted by a fixed base, as a
// guest table's guest-physical store is translated to host memory.
type offsetStore struct {
	mem  *phys.Memory
	base addr.PA
}

func (s offsetStore) Read64(pa addr.PA) (uint64, error)  { return s.mem.Read64(s.base + pa) }
func (s offsetStore) Write64(pa addr.PA, v uint64) error { return s.mem.Write64(s.base+pa, v) }
func (s offsetStore) ZeroPage(pa addr.PA) error          { return s.mem.ZeroPage(s.base + pa) }

func TestTableOverTranslatedStore(t *testing.T) {
	mem := phys.New(256 * addr.MiB)
	const base = 0x100_0000
	tbl, err := New(offsetStore{mem, base}, &listFrames{0x1000, 0x2000, 0x3000}, addr.Sv39)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x4000_0000, 0x8000_0000, perm.R, true); err != nil {
		t.Fatal(err)
	}
	tr, err := tbl.TranslateSW(0x4000_0123)
	if err != nil || tr.PA != 0x8000_0123 || tr.Perm != perm.R {
		t.Errorf("translate = %+v, %v", tr, err)
	}
	// The root PTE was written through the store, at base + root.
	raw, err := mem.Read64(base + 0x1000 + addr.PA(addr.Sv39.VPN(0x4000_0000, 2)*8))
	if err != nil || PTE(raw).Target() != 0x2000 {
		t.Errorf("root PTE in host memory = %v, %v; want a pointer to store page 0x2000", PTE(raw), err)
	}
}

// MapRange matches the per-page Map loop it replaced: with page-table
// pages and data frames drawn from one allocator (as the kernel does when
// its PT pool is not separate), the same frames are drawn in the same
// order, the same tables are built, the same error ends a range that runs
// into a superpage, out of frames or out of the canonical space, and the
// pages mapped before it are left the same.
func TestMapRangeMatchesPerPageMap(t *testing.T) {
	const k4 = addr.PageSize
	type pre struct {
		va    addr.VA
		level int // 0: Map, else MapSuper at this level
	}
	cases := []struct {
		name   string
		mode   addr.Mode
		va     addr.VA
		pages  int
		frames uint64 // allocator size in frames
		pre    []pre
		fails  bool
	}{
		{"crosses 2 MiB", addr.Sv39, 0x4000_0000 + 2*addr.MiB - 3*k4, 10, 512, nil, false},
		{"starts mid-table", addr.Sv39, 0x4000_0000 + 100*k4, 1300, 2048, nil, false},
		{"crosses 1 GiB", addr.Sv48, addr.GiB - 5*k4, 12, 512, nil, false},
		{"over existing pages", addr.Sv39, 0x4000_0000, 600, 1024, []pre{{0x4000_0000 + 3*k4, 0}, {0x4020_0000, 0}}, false},
		{"into a superpage", addr.Sv39, 0x4020_0000 - 5*k4, 10, 512, []pre{{0x4020_0000, 1}}, true},
		{"out of frames", addr.Sv39, 0x4000_0000 + 2*addr.MiB - 8*k4, 40, 24, nil, true},
		{"out of canonical space", addr.Sv39, 0x40_0000_0000 - 2*k4, 4, 512, nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frames := addr.Range{Base: 0x10_0000, Size: c.frames * k4}
			build := func(mapRange bool) (*Table, *phys.Memory, *phys.FrameAllocator, error) {
				mem := phys.New(64 * addr.MiB)
				alloc := phys.NewFrameAllocator(frames, false)
				tbl, err := New(mem, alloc, c.mode)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range c.pre {
					var err error
					if p.level == 0 {
						err = tbl.Map(p.va, 0x300_0000, perm.R, true)
					} else {
						err = tbl.MapSuper(p.va, 0x400_0000, p.level, perm.R, true)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if mapRange {
					return tbl, mem, alloc, tbl.MapRange(c.va, c.pages, perm.RW, false, alloc.Alloc)
				}
				for i := 0; i < c.pages; i++ {
					pa, err := alloc.Alloc()
					if err != nil {
						return tbl, mem, alloc, err
					}
					if err := tbl.Map(c.va+addr.VA(i*addr.PageSize), pa, perm.RW, false); err != nil {
						return tbl, mem, alloc, err
					}
				}
				return tbl, mem, alloc, nil
			}
			got, gotMem, gotAlloc, gotErr := build(true)
			want, wantMem, wantAlloc, wantErr := build(false)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (gotErr != nil) != c.fails {
				t.Fatalf("MapRange error %v, per-page Map %v, want failure %v", gotErr, wantErr, c.fails)
			}
			if gotAlloc.Allocated() != wantAlloc.Allocated() {
				t.Errorf("MapRange drew %d frames, per-page Map %d", gotAlloc.Allocated(), wantAlloc.Allocated())
			}
			if g, w := got.PTPages(), want.PTPages(); !slices.Equal(g, w) {
				t.Errorf("PT pages %v, per-page Map %v", g, w)
			}
			for pa := frames.Base; pa < frames.End(); pa += 8 {
				g, _ := gotMem.Read64(pa)
				w, _ := wantMem.Read64(pa)
				if g != w {
					t.Fatalf("word at %v = %#x, per-page Map wrote %#x", pa, g, w)
				}
			}
		})
	}
}
