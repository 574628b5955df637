package kernel

// Differential test for the demand-paging step. The reference below is the
// earlier pair of fault loops, kept as they were except that the privilege
// is an argument rather than core state: refAccess is the scalar retry
// loop and refAccessBlock the block path, which ran the block on the core
// until an op faulted (refRunBlock), handled the fault, and resumed at the
// faulted op with its Compute count zeroed. TestSettleDifferential drives
// twin booted systems through the same seeded sequences, one through settle
// (access, RunBlock) and one through the reference, and compares the
// two after every op.

import (
	"fmt"
	"reflect"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/perm"
	"hpmp/internal/stats"
)

// refAccess is the reference scalar access.
func refAccess(k *Kernel, va addr.VA, kind perm.Access, priv perm.Priv) (addr.PA, error) {
	var res mmu.Result
	for attempt := 0; attempt < 3; attempt++ {
		if err := k.Mach.Core.Access(va, kind, priv, &res); err != nil {
			return 0, err
		}
		if res.PageFault {
			if err := k.HandleFault(k.Current(), va, kind); err != nil {
				return 0, err
			}
			continue
		}
		if res.ProtFault || res.AccessFault {
			if kind == perm.Write {
				// Possible copy-on-write page.
				handled, err := k.handleCoW(k.Current(), va)
				if err != nil {
					return 0, err
				}
				if handled {
					continue
				}
			}
			return 0, fmt.Errorf("kernel: fault at %v (%v, prot=%v access=%v)",
				va, kind, res.ProtFault, res.AccessFault)
		}
		return res.PA, nil
	}
	return 0, fmt.Errorf("kernel: access at %v did not settle after fault handling", va)
}

// refRunBlock is the reference core block: ops back to back at privilege
// priv, stopping at the first faulted op. It returns the number of ops
// that completed without a fault; out[n] then holds the faulted result.
func refRunBlock(c *cpu.Core, ops []cpu.BlockRef, out []mmu.Result, priv perm.Priv) (int, error) {
	for i := range ops {
		op := &ops[i]
		if op.Compute > 0 {
			c.Compute(op.Compute)
		}
		if err := c.Access(op.VA, op.Kind, priv, &out[i]); err != nil {
			return i, err
		}
		if out[i].Faulted() {
			return i, nil
		}
	}
	return len(ops), nil
}

// refAccessBlock is the reference block access: resume at the faulted op
// after handling its fault, zeroing its Compute so those instructions do
// not retire twice.
func refAccessBlock(k *Kernel, ops []cpu.BlockRef, out []mmu.Result, priv perm.Priv) error {
	i := 0
	faultAt, attempts := -1, 0
	for i < len(ops) {
		n, err := refRunBlock(k.Mach.Core, ops[i:], out[i:], priv)
		if err != nil {
			return err
		}
		i += n
		if i == len(ops) {
			return nil
		}
		// ops[i] faulted; out[i] holds the faulted result.
		if i == faultAt {
			attempts++
		} else {
			faultAt, attempts = i, 1
		}
		op := &ops[i]
		res := &out[i]
		switch {
		case res.PageFault:
			if err := k.HandleFault(k.Current(), op.VA, op.Kind); err != nil {
				return err
			}
		case op.Kind == perm.Write:
			// Possible copy-on-write page.
			handled, err := k.handleCoW(k.Current(), op.VA)
			if err != nil {
				return err
			}
			if !handled {
				return fmt.Errorf("kernel: fault at %v (%v, prot=%v access=%v)",
					op.VA, op.Kind, res.ProtFault, res.AccessFault)
			}
		default:
			return fmt.Errorf("kernel: fault at %v (%v, prot=%v access=%v)",
				op.VA, op.Kind, res.ProtFault, res.AccessFault)
		}
		if attempts >= 3 {
			return fmt.Errorf("kernel: access at %v did not settle after fault handling", op.VA)
		}
		op.Compute = 0
	}
	return nil
}

// twin is one side of the differential: a booted system and its running
// process. ref selects the reference fault loops.
type twin struct {
	k   *Kernel
	cur *Process
	ref bool
}

func (w *twin) load64(va addr.VA) (uint64, error) {
	if !w.ref {
		e := &Env{K: w.k, P: w.cur}
		return e.Load64(va), e.Err()
	}
	pa, err := refAccess(w.k, va, perm.Read, perm.U)
	if err != nil {
		return 0, err
	}
	return w.k.Mach.Mem.Read64(pa)
}

func (w *twin) store64(va addr.VA, v uint64) error {
	if !w.ref {
		e := &Env{K: w.k, P: w.cur}
		e.Store64(va, v)
		return e.Err()
	}
	pa, err := refAccess(w.k, va, perm.Write, perm.U)
	if err != nil {
		return err
	}
	return w.k.Mach.Mem.Write64(pa, v)
}

func (w *twin) fetch(va addr.VA) error {
	if !w.ref {
		e := &Env{K: w.k, P: w.cur}
		e.FetchAt(va)
		return e.Err()
	}
	_, err := refAccess(w.k, va, perm.Fetch, perm.U)
	return err
}

func (w *twin) block(ops []cpu.BlockRef, out []mmu.Result) error {
	ops = append([]cpu.BlockRef(nil), ops...) // the reference patches Compute
	if !w.ref {
		return (&Env{K: w.k, P: w.cur}).RunBlock(ops, out)
	}
	return refAccessBlock(w.k, ops, out, perm.U)
}

// state is everything the comparison reads after an op.
func (w *twin) state() (now uint64, machine, kern, mon map[string]uint64, hists map[string]stats.HistogramSnapshot) {
	var mc stats.Counters
	w.k.Mach.MergeCounters(&mc)
	hists = make(map[string]stats.HistogramSnapshot)
	w.k.Mach.EachHistogram(func(family string, h *stats.Histogram) { hists[family] = h.Snapshot() })
	return w.k.Mach.Core.Now, mc.Snapshot(), w.k.Counters.Snapshot(), w.k.Mon.Counters.Snapshot(), hists
}

// seqRNG is a deterministic xorshift64* stream for op sequences.
type seqRNG uint64

func (r *seqRNG) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = seqRNG(x)
	return x * 0x2545f4914f6cdd1d
}

func (r *seqRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// coverage counts the situations a sequence must reach for the comparison
// to mean anything.
type coverage struct {
	blockFaults   int // page faults taken inside a block whose ops retire Compute
	cowFaults     int // copy-on-write faults resolved
	textWriteErrs int // writes to RX text refused
	readDenied    int // reads refused on a copy-on-write page
	fetchDenied   int // fetches refused on a copy-on-write page
	scalar        int // scalar Load64/Store64/FetchAt ops
}

func TestSettleDifferential(t *testing.T) {
	for _, plat := range []cpu.Platform{cpu.RocketPlatform(), cpu.BOOMPlatform()} {
		for _, mode := range []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP} {
			for _, seed := range []uint64{1, 0x9e3779b97f4a7c15} {
				name := fmt.Sprintf("%s/%v/seed=%#x", plat.Core.Name, mode, seed)
				t.Run(name, func(t *testing.T) { runSettleDifferential(t, plat, mode, seed) })
			}
		}
	}
}

func runSettleDifferential(t *testing.T, plat cpu.Platform, mode monitor.Mode, seed uint64) {
	boot := func(ref bool) *twin {
		mach := cpu.NewMachine(plat, memSize, true)
		mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		k, err := New(mach, mon, DefaultConfig(memSize))
		if err != nil {
			t.Fatal(err)
		}
		p, err := k.Spawn(Image{Name: "app", TextPages: 16, DataPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SwitchTo(p.PID); err != nil {
			t.Fatal(err)
		}
		return &twin{k: k, cur: p, ref: ref}
	}
	head, ref := boot(false), boot(true)
	both := func(f func(w *twin) error) (error, error) { return f(head), f(ref) }

	// regions are the writable anonymous mappings ops draw addresses from;
	// a fresh one is mapped now and then so page faults keep coming.
	type region struct {
		base  addr.VA
		pages int
	}
	var regions []region
	grow := func(pages int) {
		hb, rb := head.cur.MMap(pages, perm.RW), ref.cur.MMap(pages, perm.RW)
		if hb != rb {
			t.Fatalf("twins mapped different regions: %v vs %v", hb, rb)
		}
		regions = append(regions, region{hb, pages})
	}
	grow(48)

	rng := seqRNG(seed | 1)
	dataVA := func() addr.VA {
		r := regions[rng.intn(len(regions))]
		return r.base + addr.VA(rng.intn(r.pages*addr.PageSize/8)*8)
	}
	textVA := func() addr.VA { return head.cur.Code() + addr.VA(rng.intn(16*addr.PageSize/8)*8) }
	onCoW := func(va addr.VA) bool {
		mp, ok := head.cur.pages[va.PageBase()]
		return ok && mp.cow
	}
	// cowVA draws data addresses until one lands on a copy-on-write page,
	// giving up after a few tries.
	cowVA := func() addr.VA {
		va := dataVA()
		for try := 0; try < 16 && !onCoW(va); try++ {
			va = dataVA()
		}
		return va
	}

	var cov coverage
	var narrowed []addr.VA // pages narrowed to execute-only
	forks := 0
	const steps = 300
	for step := 0; step < steps; step++ {
		var desc string
		var herr, rerr error
		var hvals, rvals []uint64
		var hout, rout []mmu.Result
		faults0 := head.k.Counters.Snapshot()["kernel.page_fault"]
		cows0 := head.k.Counters.Snapshot()["kernel.cow_fault"]
		compute := false
		var denied *int // the coverage count a refused op on a CoW page adds to
		switch op := rng.intn(20); {
		case op < 8: // a block: a strided fill or scattered references
			n := 1 + rng.intn(64)
			ops := make([]cpu.BlockRef, n)
			r := regions[len(regions)-1]
			size := addr.VA(r.pages * addr.PageSize)
			start, stride := addr.VA(rng.intn(int(size)/8)*8), addr.VA(8<<rng.intn(10))
			for i := range ops {
				va := dataVA()
				if rng.intn(2) == 0 {
					va = r.base + (start+addr.VA(i)*stride)%size
				}
				kind := perm.Read
				if rng.intn(2) == 0 {
					kind = perm.Write
				}
				ops[i] = cpu.BlockRef{VA: va, Kind: kind, Compute: uint64(rng.intn(4))}
				compute = compute || ops[i].Compute > 0
			}
			if rng.intn(8) == 0 {
				// A write to RX text somewhere in the block.
				ops[rng.intn(n)] = cpu.BlockRef{VA: textVA(), Kind: perm.Write, Compute: 2}
			}
			desc = fmt.Sprintf("block of %d", n)
			hout, rout = make([]mmu.Result, n), make([]mmu.Result, n)
			herr, rerr = head.block(ops, hout), ref.block(ops, rout)
		case op < 11:
			va := dataVA()
			if len(narrowed) > 0 && rng.intn(2) == 0 {
				va = narrowed[rng.intn(len(narrowed))]
			}
			desc = fmt.Sprintf("Load64 %v", va)
			cov.scalar++
			if onCoW(va) {
				denied = &cov.readDenied
			}
			herr, rerr = both(func(w *twin) error {
				v, err := w.load64(va)
				if w.ref {
					rvals = append(rvals, v)
				} else {
					hvals = append(hvals, v)
				}
				return err
			})
		case op < 14:
			va, v := dataVA(), rng.next()
			desc = fmt.Sprintf("Store64 %v", va)
			cov.scalar++
			herr, rerr = both(func(w *twin) error { return w.store64(va, v) })
		case op < 15:
			// Fetches: text executes; a data page refuses.
			va := textVA()
			if rng.intn(2) == 0 {
				va = cowVA()
			}
			desc = fmt.Sprintf("FetchAt %v", va)
			cov.scalar++
			if onCoW(va) {
				denied = &cov.fetchDenied
			}
			herr, rerr = both(func(w *twin) error { return w.fetch(va) })
		case op < 16:
			va := textVA()
			desc = fmt.Sprintf("Store64 to text %v", va)
			cov.scalar++
			herr, rerr = both(func(w *twin) error { return w.store64(va, 1) })
			if herr != nil {
				cov.textWriteErrs++
			}
		case op < 17:
			// Narrow a copy-on-write page to execute-only, as an mprotect
			// would: reads now fault, and only a write may resolve it
			// through CoW.
			va := cowVA().PageBase()
			desc = fmt.Sprintf("narrow %v to --x", va)
			if !onCoW(va) {
				break
			}
			narrowed = append(narrowed, va)
			herr, rerr = both(func(w *twin) error {
				if err := w.cur.Table.Protect(va, perm.X); err != nil {
					return err
				}
				w.k.Mach.MMU.FlushVA(va)
				return nil
			})
		case op < 18 && forks < 3:
			forks++
			toChild := rng.intn(2) == 0
			desc = fmt.Sprintf("fork (run child: %v)", toChild)
			herr, rerr = both(func(w *twin) error {
				child, err := w.k.Fork(w.cur)
				if err != nil || !toChild {
					return err
				}
				w.cur = child
				return w.k.SwitchTo(child.PID)
			})
		default:
			grow(8 + rng.intn(24))
			desc = "mmap"
		}
		where := fmt.Sprintf("step %d (%s)", step, desc)
		if fmt.Sprint(herr) != fmt.Sprint(rerr) {
			t.Fatalf("%s: error %v, reference %v", where, herr, rerr)
		}
		if herr != nil && denied != nil {
			*denied++
		}
		if !reflect.DeepEqual(hvals, rvals) {
			t.Fatalf("%s: loaded %v, reference %v", where, hvals, rvals)
		}
		for i := range hout {
			if !reflect.DeepEqual(hout[i], rout[i]) {
				t.Fatalf("%s: out[%d] = %+v, reference %+v", where, i, hout[i], rout[i])
			}
		}
		hn, hm, hk, hmon, hh := head.state()
		rn, rm, rk, rmon, rh := ref.state()
		if hn != rn {
			t.Fatalf("%s: Core.Now %d, reference %d", where, hn, rn)
		}
		for _, c := range []struct {
			set        string
			head, want map[string]uint64
		}{{"machine", hm, rm}, {"kernel", hk, rk}, {"monitor", hmon, rmon}} {
			if !reflect.DeepEqual(c.head, c.want) {
				t.Fatalf("%s: %s counters differ:\n%v\nreference:\n%v", where, c.set, c.head, c.want)
			}
		}
		if !reflect.DeepEqual(hh, rh) {
			t.Fatalf("%s: latency histograms differ", where)
		}
		if hout != nil && compute && head.k.Counters.Snapshot()["kernel.page_fault"] > faults0 {
			cov.blockFaults++
		}
		cov.cowFaults += int(head.k.Counters.Snapshot()["kernel.cow_fault"] - cows0)
	}
	if cov.blockFaults == 0 || cov.cowFaults == 0 || cov.textWriteErrs == 0 ||
		cov.readDenied == 0 || cov.fetchDenied == 0 || cov.scalar == 0 {
		t.Fatalf("sequence too tame to compare anything: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}
