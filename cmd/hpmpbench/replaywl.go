package main

import (
	"fmt"
	"runtime"
	"time"

	"hpmp/internal/addr"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/replay"
	"hpmp/internal/simcfg"
)

// The replay-walk stream: a small hot set and a cold set far beyond TLB
// reach and the last-level cache, so most accesses walk the page table and,
// under pmpt and hpmp, the permission table too — the paper's extra
// dimension. Frames are scattered over DRAM so permission-table leaves are
// scattered as well.
const (
	walkHotPages   = 16
	walkColdPages  = 16384 // 64 MiB
	walkHotShare   = 0.20
	walkStoreShare = 0.30
	// walkRemapEvery moves a page to a new frame every so many events; the
	// replay engine turns each move into a remap plus sfence.vma (FlushVA).
	walkRemapEvery = 2000
	walkSpare      = 4096 // free frames remaps draw from
	walkHotBase    = addr.VA(0x3f_0000_0000)
	walkColdBase   = addr.VA(0x10_0000_0000)
	// Data frames avoid the first MiB (a zero PA is not replayable) and the
	// replay engine's two 16 MiB pools at the top of the default 512 MiB.
	walkFirstFrame = 256
	walkLastFrame  = (512 - 32) << 8
)

// replayModes are the isolation modes each round replays the stream on.
var replayModes = []simcfg.Mode{simcfg.ModePMP, simcfg.ModePMPT, simcfg.ModeHPMP}

// replayChunk is how many events go to each Engine.Run call.
const replayChunk = 4096

// walkStream generates n access events from seed. Every event is a
// successful access whose physical address follows the stream's current
// page placement, so a faithful replay reproduces each one.
func walkStream(seed uint64, n int) []obs.Event {
	rng := newRNG(seed)
	frames := rng.Perm(walkLastFrame - walkFirstFrame)[:walkHotPages+walkColdPages+walkSpare]
	for i := range frames {
		frames[i] += walkFirstFrame
	}
	place, spare := frames[:walkHotPages+walkColdPages], frames[walkHotPages+walkColdPages:]
	events := make([]obs.Event, n)
	for i := range events {
		var page int
		if (i+1)%walkRemapEvery == 0 {
			page = walkHotPages + rng.IntN(walkColdPages)
			j := rng.IntN(len(spare))
			place[page], spare[j] = spare[j], place[page]
		} else if rng.Float64() < walkHotShare {
			page = rng.IntN(walkHotPages)
		} else {
			page = walkHotPages + rng.IntN(walkColdPages)
		}
		va := walkColdBase + addr.VA(page-walkHotPages)*addr.PageSize
		if page < walkHotPages {
			va = walkHotBase + addr.VA(page)*addr.PageSize
		}
		off := uint64(rng.IntN(addr.PageSize/8)) * 8
		kind := perm.Read
		if rng.Float64() < walkStoreShare {
			kind = perm.Write
		}
		events[i] = obs.Event{
			Seq:    uint64(i + 1),
			Kind:   obs.KindAccess,
			Access: kind,
			VA:     va + addr.VA(off),
			PA:     addr.PA(uint64(place[page])<<addr.PageShift + off),
		}
	}
	return events
}

// replayConfig is the replay machine for one mode: the default platform
// and memory size.
func replayConfig(mode simcfg.Mode) simcfg.Machine {
	cfg := simcfg.Default()
	cfg.Mode = mode
	return cfg
}

// replayOnce builds a fresh engine for mode and replays events on it in
// replayChunk-sized Run calls. When onStep is non-nil it receives each
// step's interval: step 0 is replay.New, step k the k-th chunk.
func replayOnce(mode simcfg.Mode, events []obs.Event, onStep func(step int, start, end time.Time)) (*replay.Engine, error) {
	start := time.Now()
	eng, err := replay.New(replayConfig(mode))
	if err != nil {
		return nil, err
	}
	if onStep != nil {
		onStep(0, start, time.Now())
	}
	for i := 0; i < len(events); i += replayChunk {
		start := time.Now()
		if err := eng.Run(events[i:min(i+replayChunk, len(events))]); err != nil {
			return nil, err
		}
		if onStep != nil {
			onStep(1+i/replayChunk, start, time.Now())
		}
	}
	return eng, nil
}

// runReplay replays the seeded stream in rounds until the window closes;
// a round builds one fresh engine per mode and replays the whole stream on
// each. Every step of a round (an engine build or a 4096-event chunk)
// repeats identically in every round: latency_ms sums the steps' fastest
// times (one undisturbed round) and tail_ms is the tail of the chunks'
// fastest times. Every replay must reproduce every recorded access, skip
// nothing, and give the same counters in every round (and, at the
// committed seed and size, the committed digests).
func runReplay(o options, spans *spanLog) (*report, error) {
	var events []obs.Event
	var setups setupClock
	setup := func() error {
		events = walkStream(o.seed, o.size.replayEvents)
		for _, mode := range replayModes {
			if _, err := replay.New(replayConfig(mode)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setups.time(setup); err != nil {
		return nil, err
	}
	pinned := o.digests.ReplaySeed == o.seed && o.digests.ReplayEvents == len(events)

	rep := newReport()
	first := map[simcfg.Mode]string{}
	steps := make([][][]float64, len(replayModes)) // mode, step -> ms per round
	rounds := 0
	root := spans.begin("workload", 0, "replay-walk")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(o.window)
	for rounds == 0 || time.Now().Before(deadline) {
		round := spans.begin("round", root, fmt.Sprintf("round-%d", rounds))
		roundCounts := map[string]uint64{}
		for mi, mode := range replayModes {
			sp := spans.begin("mode", round, string(mode))
			eng, err := replayOnce(mode, events, func(step int, a, b time.Time) {
				if step == len(steps[mi]) {
					steps[mi] = append(steps[mi], nil)
				}
				steps[mi][step] = append(steps[mi][step], b.Sub(a).Seconds()*1e3)
				name := "replay.chunk"
				if step == 0 {
					name = "replay.new"
				}
				spans.add(name, sp, string(mode), a, b)
			})
			spans.end(sp)
			rep.attempted++
			if err != nil {
				rep.fail("%s: %v", mode, err)
				continue
			}
			st := &eng.Stats
			if st.Divergences > 0 || st.Skipped() > 0 {
				rep.fail("%s: %d divergences, %d skipped events (%s)", mode, st.Divergences, st.Skipped(), st.First)
				continue
			}
			counters := eng.Counters()
			d := countersDigest(counters, eng.Histograms())
			if _, seen := first[mode]; !seen {
				first[mode] = d
			}
			switch {
			case d != first[mode]:
				rep.fail("%s: counters differ from the first round's", mode)
			case pinned && d != o.digests.Replay[string(mode)]:
				rep.fail("%s: counters differ from the committed digest", mode)
			}
			addCounts(roundCounts, counters)
		}
		spans.end(round)
		rounds++
		if rep.counts == nil {
			rep.counts = roundCounts
		}
		if err := setups.time(setup); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	spans.end(root)

	var latency float64
	var chunks []float64
	for mi, mode := range replayModes {
		var modeMs float64
		for step, times := range steps[mi] {
			t := fastest(times)
			modeMs += t
			if step > 0 {
				chunks = append(chunks, t)
			}
		}
		latency += modeMs
		rep.extra["replay.mode_ms."+string(mode)] = modeMs
	}
	tail, pct := tailPercentile(chunks)
	rep.metrics = map[string]float64{
		"latency_ms":    latency,
		"tail_ms":       tail,
		"ns_per_access": ratio(latency*1e6, float64(len(replayModes)*len(events))),
		"alloc_mib":     float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds) / (1 << 20),
		"setup_s":       fastest(setups),
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d rounds × %d modes × %d events; digest pinned: %v", rounds, len(replayModes), len(events), pinned),
		fmt.Sprintf("tail_ms = p%d of %d chunks' fastest replay (%d events each)", pct, len(chunks), replayChunk))
	return rep, nil
}

// replaySample is the first sampleCap events of the workload's stream.
func replaySample(o options) ([]obs.Event, error) {
	return walkStream(o.seed, min(o.size.replayEvents, o.size.sampleCap)), nil
}
