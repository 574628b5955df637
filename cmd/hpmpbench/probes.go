package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"hpmp/internal/addr"
	"hpmp/internal/bench"
	"hpmp/internal/cpu"
	"hpmp/internal/memport"
	"hpmp/internal/mmu"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/ptw"
	"hpmp/internal/replay"
	"hpmp/internal/simcfg"
)

// probeBatches is how many batches each probe times; it reports the
// median batch.
const probeBatches = 5

// timeBatches runs f(calls) probeBatches times and returns the median
// nanoseconds per call.
func timeBatches(calls int, f func(n int) error) (float64, error) {
	per := make([]float64, 0, probeBatches)
	for range probeBatches {
		start := time.Now()
		if err := f(calls); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	return median(per), nil
}

// sink keeps probe results live so the compiler cannot drop the calls.
var sink uint64

// runProbes times one public entry point per layer on the workload's
// access sample, replayed onto a default machine (rocket, hpmp, 512 MiB):
// every probe sees the addresses and access kinds the workload produces.
// calls is the batch size; the mmu probes round it up to whole blocks.
func runProbes(sample []obs.Event, calls int, spans *spanLog, parent int) (map[string]float64, error) {
	cfg := simcfg.Default()
	var usable []obs.Event
	for _, ev := range sample {
		if ev.Kind == obs.KindAccess && ev.Fault == obs.FaultNone && ev.PA != 0 && uint64(ev.PA) < cfg.MemSize {
			usable = append(usable, ev)
		}
	}
	if len(usable) == 0 {
		return nil, errors.New("probes: the access sample holds no replayable access")
	}
	out := map[string]float64{}
	probe := func(name string, f func() (float64, error)) error {
		sp := spans.begin("probe", parent, name)
		v, err := f()
		spans.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		out[name] = v
		return nil
	}

	millis := func(f func(int) error) func() (float64, error) {
		return func() (float64, error) {
			ns, err := timeBatches(1, f)
			return ns / 1e6, err
		}
	}
	if err := errors.Join(
		probe("simcfg.assemble_ms", millis(func(int) error { cfg.Assemble(); return nil })),
		probe("replay.new_ms", millis(func(int) error { _, err := replay.New(cfg); return err })),
	); err != nil {
		return nil, err
	}

	eng, err := replay.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(usable); err != nil {
		return nil, err
	}
	m := eng.Machine()
	chk, ok := m.MMU.HPMPChecker()
	if !ok {
		return nil, errors.New("probes: the default machine has no HPMP checker")
	}
	var region addr.Range
	var tableRoot addr.PA
	found := false
	for i := 0; i < chk.PMP.NumEntries() && !found; i++ {
		region, tableRoot, found = chk.TableInfo(i)
	}
	if !found {
		return nil, errors.New("probes: no permission-table entry programmed")
	}

	n := len(usable)
	reqs := make([]mmu.AccessReq, (n+replay.BlockMax-1)/replay.BlockMax*replay.BlockMax)
	for i := range reqs {
		ev := usable[i%n]
		reqs[i] = mmu.AccessReq{VA: ev.VA, Kind: ev.Access, Priv: perm.U}
	}
	hits := make([]mmu.AccessReq, replay.BlockMax)
	for i := range hits {
		hits[i] = reqs[0]
	}
	results := make([]mmu.Result, replay.BlockMax)
	now := eng.Now()
	batched := func(rs []mmu.AccessReq) func(int) error {
		pos := 0
		return func(calls int) error {
			for done := 0; done < calls; done += replay.BlockMax {
				var err error
				if now, err = m.MMU.AccessBatch(rs[pos:pos+replay.BlockMax], results, now); err != nil {
					return err
				}
				pos = (pos + replay.BlockMax) % len(rs)
			}
			return nil
		}
	}
	blockCalls := (calls + replay.BlockMax - 1) / replay.BlockMax * replay.BlockMax
	cycle := func(f func(ev obs.Event) error) func(int) error {
		i := 0
		return func(calls int) error {
			for range calls {
				if err := f(usable[i]); err != nil {
					return err
				}
				if i++; i == n {
					i = 0
				}
			}
			return nil
		}
	}
	steps := []struct {
		name  string
		calls int
		f     func(int) error
	}{
		{"mmu.access_ns", blockCalls, batched(reqs)},
		{"mmu.access_hit_ns", blockCalls, batched(hits)},
		{"tlb.lookup_ns", calls, cycle(func(ev obs.Event) error {
			if _, hit := m.MMU.DTLB.Lookup(ev.VA.Frame()); hit {
				sink++
			}
			return nil
		})},
		{"ptw.walk_ns", calls, cycle(func(ev obs.Event) error {
			var res ptw.Result
			err := m.MMU.Walker.WalkInto(m.MMU.Root, ev.VA, now, &res)
			sink += res.Latency
			return err
		})},
		{"pmpt.walk_ns", calls, cycle(func(ev obs.Event) error {
			res, err := chk.Walker.Walk(tableRoot, region, ev.PA, now)
			sink += res.Latency
			return err
		})},
		{"hpmp.check_ns", calls, cycle(func(ev obs.Event) error {
			res, err := chk.Check(ev.PA, 8, ev.Access, perm.U, now)
			sink += res.Latency
			return err
		})},
		{"cache.access_ns", calls, cycle(func(ev obs.Event) error {
			now += m.Hier.Access(ev.PA, now, ev.Access == perm.Write).Latency
			return nil
		})},
		{"dram.access_ns", calls, cycle(func(ev obs.Event) error {
			now = m.Hier.Mem.Access(ev.PA, now, ev.Access == perm.Write)
			return nil
		})},
		{"phys.read64_ns", calls, cycle(func(ev obs.Event) error {
			v, err := m.Mem.Read64(ev.PA &^ 7)
			sink += v
			return err
		})},
	}
	for _, s := range steps {
		if err := probe(s.name, func() (float64, error) { return timeBatches(s.calls, s.f) }); err != nil {
			return nil, err
		}
	}

	if err := kernelProbes(usable, calls, probe); err != nil {
		return nil, err
	}
	if err := traceProbes(usable, probe); err != nil {
		return nil, err
	}
	if err := portProbes(cfg, usable, probe); err != nil {
		return nil, err
	}
	return out, nil
}

// kernelProbes time a demand fault (Env.Touch of a fresh page) and a
// batched block of user accesses (Env.RunBlock) on a booted HPMP system.
// Block addresses take their page from the sample and their offset from
// their slot, so the accesses of one block never overlap.
func kernelProbes(sample []obs.Event, calls int, probe func(string, func() (float64, error)) error) error {
	sys, err := bench.NewSystem(cpu.RocketPlatform(), monitor.ModeHPMP, bench.DefaultConfig())
	if err != nil {
		return err
	}
	env, err := sys.NewEnv("probe", 0)
	if err != nil {
		return err
	}
	faults := max(calls/32, 1)
	if err := probe("kernel.fault_ns", func() (float64, error) {
		return timeBatches(faults, func(pages int) error {
			base := env.Alloc(uint64(pages) * addr.PageSize)
			for p := range pages {
				if err := env.Touch(base+addr.VA(p)*addr.PageSize, addr.PageSize); err != nil {
					return err
				}
			}
			return nil
		})
	}); err != nil {
		return err
	}

	const regionPages = 512
	region := env.Alloc(regionPages * addr.PageSize)
	if err := env.Touch(region, regionPages*addr.PageSize); err != nil {
		return err
	}
	blocks := make([][]cpu.BlockRef, max(len(sample)/kernelBlock, 1))
	for b := range blocks {
		blocks[b] = make([]cpu.BlockRef, kernelBlock)
		for j := range blocks[b] {
			ev := sample[(b*kernelBlock+j)%len(sample)]
			kind := perm.Read
			if ev.Access == perm.Write {
				kind = perm.Write
			}
			page := ev.VA.Frame() % regionPages
			blocks[b][j] = cpu.BlockRef{VA: region + addr.VA(page*addr.PageSize+uint64(j)*8), Kind: kind}
		}
	}
	results := make([]mmu.Result, kernelBlock)
	next := 0
	return probe("cpu.runblock_ns_per_op", func() (float64, error) {
		return timeBatches((calls+kernelBlock-1)/kernelBlock*kernelBlock, func(ops int) error {
			for done := 0; done < ops; done += kernelBlock {
				if err := env.RunBlock(blocks[next], results); err != nil {
					return err
				}
				next = (next + 1) % len(blocks)
			}
			return nil
		})
	})
}

// kernelBlock is the block size of the RunBlock probe.
const kernelBlock = 256

// traceProbes time encoding the sample as an hpmp-trace/v1 stream and
// parsing it back, per event.
func traceProbes(sample []obs.Event, probe func(string, func() (float64, error)) error) error {
	events := make([]obs.Event, len(sample))
	for i, ev := range sample {
		ev.Seq = uint64(i + 1)
		events[i] = ev
	}
	var buf bytes.Buffer
	if err := probe("obs.write_trace_ns_per_event", func() (float64, error) {
		return timeBatches(len(events), func(int) error {
			buf.Reset()
			st, err := obs.NewStreamTracer(&buf, obs.Header{Source: "probe", SampleEvery: 1, Kept: len(events)}, 0, nil)
			if err != nil {
				return err
			}
			for _, ev := range events {
				if err := st.Write(ev); err != nil {
					return err
				}
			}
			return st.Close()
		})
	}); err != nil {
		return err
	}
	return probe("obs.read_trace_ns_per_event", func() (float64, error) {
		return timeBatches(len(events), func(int) error {
			_, got, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
			if err == nil && len(got) != len(events) {
				err = fmt.Errorf("read %d events, wrote %d", len(got), len(events))
			}
			return err
		})
	})
}

// timedPort counts every call into a walker's memory port and times one
// call in portStride, to estimate the host time a walk spends fetching.
type timedPort struct {
	inner   memport.Port
	calls   uint64
	timed   uint64
	elapsed time.Duration
}

const portStride = 64

func (p *timedPort) Read64(pa addr.PA, now uint64) (uint64, uint64, error) {
	p.calls++
	if p.calls%portStride != 0 {
		return p.inner.Read64(pa, now)
	}
	start := time.Now()
	v, lat, err := p.inner.Read64(pa, now)
	p.elapsed += time.Since(start)
	p.timed++
	return v, lat, err
}

func (p *timedPort) Write64(pa addr.PA, val uint64, now uint64) (uint64, error) {
	p.calls++
	if p.calls%portStride != 0 {
		return p.inner.Write64(pa, val, now)
	}
	start := time.Now()
	lat, err := p.inner.Write64(pa, val, now)
	p.elapsed += time.Since(start)
	p.timed++
	return lat, err
}

// estimate extrapolates the timed calls to all calls.
func (p *timedPort) estimate() time.Duration {
	if p.timed == 0 {
		return 0
	}
	return time.Duration(float64(p.elapsed) * float64(p.calls) / float64(p.timed))
}

// portProbes replay the sample on fresh engines whose page-table walker
// and permission-table walker fetch through timedPorts, and report the
// share of replay time each spends fetching PTEs and pmptes.
func portProbes(cfg simcfg.Machine, sample []obs.Event, probe func(string, func() (float64, error)) error) error {
	var ptwShare, pmptShare []float64
	if err := probe("ptw.port_share", func() (float64, error) {
		for range probeBatches {
			eng, err := replay.New(cfg)
			if err != nil {
				return 0, err
			}
			m := eng.Machine()
			pt := &timedPort{inner: m.MMU.Walker.Port}
			pmpt := &timedPort{inner: m.Checker.Walker.Port}
			m.MMU.Walker.Port, m.Checker.Walker.Port = pt, pmpt
			start := time.Now()
			if err := eng.Run(sample); err != nil {
				return 0, err
			}
			total := float64(time.Since(start))
			ptwShare = append(ptwShare, float64(pt.estimate())/total)
			pmptShare = append(pmptShare, float64(pmpt.estimate())/total)
		}
		return median(ptwShare), nil
	}); err != nil {
		return err
	}
	return probe("pmpt.port_share", func() (float64, error) { return median(pmptShare), nil })
}
