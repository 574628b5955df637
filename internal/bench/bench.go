// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§8), each regenerating the same rows/series
// the paper reports, on the simulated platforms. Absolute numbers differ
// from the FPGA (documented in EXPERIMENTS.md); orderings, crossovers, and
// rough factors are the reproduction target.
package bench

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"sync"

	"hpmp/internal/addr"
	"hpmp/internal/cpu"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
	"hpmp/internal/obs"
	"hpmp/internal/perm"
	"hpmp/internal/simcfg"
	"hpmp/internal/stats"
)

// Config tunes experiment sizes.
type Config struct {
	// Quick shrinks workload sizes for CI and `go test -bench`.
	Quick bool
	// MemSize is the DRAM size, in bytes, of every system the experiments
	// boot. It is the one machine parameter experiments read: each picks
	// its own platform, isolation mode and cache geometry per paper figure.
	MemSize uint64
	// Workload scales the traffic-side workloads beyond the paper's
	// defaults (miniredis keyspace/request count, serverless invocation
	// reps, cold-start flood size). Zero value = tier defaults.
	Workload simcfg.WorkloadScale

	// obs, when set by the runner, collects every System the experiment
	// boots. Config is passed by value, so the pointer is shared across the
	// copies one experiment makes.
	obs *observer
	// tracer, when set by the runner, is attached to every machine the
	// experiment boots via cpu.Machine.SetTracer, so the translation-path
	// event trace covers the whole experiment.
	tracer *obs.Tracer
	// memo, set by the runner, shares simulated units across the
	// experiments of one RunAll call (see sharedUnits).
	memo *runMemo
	// ctx, set by the runner, is the run's context carrying the
	// experiment's pprof labels; memo waits return when it is canceled.
	ctx context.Context
}

// DefaultConfig returns the full-size configuration.
func DefaultConfig() Config {
	return Config{MemSize: simcfg.Default().MemSize}
}

// Validate rejects configurations that would only fail later, deep inside
// an experiment. The memory-size rule lives in simcfg — the one validation
// path shared with replay and the daemon.
func (c Config) Validate() error {
	m := simcfg.Default()
	m.MemSize = c.MemSize
	if err := m.Validate(); err != nil {
		return err
	}
	return c.Workload.Validate()
}

// watch registers one booted system with the run: the runner's observer
// snapshots its counters and histograms when the experiment finishes, and
// the run's tracer (when one is configured) is attached to its machine's
// translation-path hooks. Every machine, kernel and monitor an experiment
// boots goes through here exactly once — after boot for monitor/kernel
// systems, so boot itself is never traced, and right after
// cpu.NewMachine for bare rigs. A no-op outside the runner.
func (c Config) watch(s *System) {
	if c.tracer != nil {
		s.Mach.SetTracer(c.tracer)
	}
	c.obs.add(s)
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	// Notes records methodology details worth printing with the tables.
	Notes []string

	// Counters aggregates the cpu/mmu/kernel/monitor counters of every
	// System the experiment booted under the runner — a per-experiment
	// observability snapshot (see CountersCSV). Excluded from
	// Render(); counter *values* are deterministic but their first-use
	// order is not.
	Counters stats.Counters
	// Hists aggregates the cycle-latency histograms of every machine the
	// experiment booted under the runner, keyed by family
	// (mmu.access_latency, ptw.walk_latency, pmptw.walk_latency,
	// hpmp.check_latency). Like Counters it is filled by the runner and
	// excluded from Render().
	Hists map[string]*stats.Histogram
}

// Render formats the whole result as text.
func (r *Result) Render() string {
	out := fmt.Sprintf("### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.Render() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// CostClass classifies an experiment's relative full-size runtime, so CI
// jobs and users can pick cheap subsets without memorizing experiment
// internals.
type CostClass string

const (
	// CostLight: sub-second even at full size (analytical models, single
	// accesses).
	CostLight CostClass = "light"
	// CostMedium: seconds at full size (single-suite sweeps).
	CostMedium CostClass = "medium"
	// CostHeavy: the long poles of `run all` (multi-platform suite sweeps).
	CostHeavy CostClass = "heavy"
)

// Experiment is one registered experiment: the run function plus the
// metadata the CLI (`list`, `describe`), the metrics exporter, and the
// spec-conformance test are driven by.
type Experiment struct {
	ID    string
	Title string
	// Figure names the paper figure or table the experiment regenerates
	// (e.g. "Fig. 10", "Table 3"), or the extension it models.
	Figure string
	// Counters lists counter-key prefixes a successful run is expected to
	// produce in its observability snapshot; the spec test enforces them.
	Counters []string
	// Cost classifies full-size runtime.
	Cost CostClass
	Run  func(cfg Config) (*Result, error)
}

var (
	regMu    sync.Mutex
	registry []Experiment
)

// idPattern constrains experiment IDs to lowercase alphanumerics with
// single interior dashes — the shape every figure/table id has.
var idPattern = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)

// Register adds an experiment to the registry. It panics on a duplicate or
// malformed ID: both are programming errors that would otherwise surface
// as an ambiguous ByID much later. An empty Cost defaults to CostMedium.
func Register(e Experiment) {
	if !idPattern.MatchString(e.ID) {
		panic(fmt.Sprintf("bench: malformed experiment id %q", e.ID))
	}
	if e.Run == nil {
		panic(fmt.Sprintf("bench: experiment %q has no Run function", e.ID))
	}
	switch e.Cost {
	case CostLight, CostMedium, CostHeavy:
	case "":
		e.Cost = CostMedium
	default:
		panic(fmt.Sprintf("bench: experiment %q has unknown cost class %q", e.ID, e.Cost))
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, prev := range registry {
		if prev.ID == e.ID {
			panic(fmt.Sprintf("bench: duplicate experiment id %q", e.ID))
		}
	}
	registry = append(registry, e)
}

// All returns every experiment in natural ID order: digit runs compare
// numerically, so fig3a–fig3d precede fig10 and table3 precedes table4.
// This is the order `list`, `run all`, and result emission share.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return naturalLess(out[i].ID, out[j].ID) })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// System is a booted stack: machine + monitor + kernel. It is also the
// unit the runner observes, so experiments that boot less register
// partial systems: a bare monitor has no Kern, a hand-built rig only Mach.
type System struct {
	Mach *cpu.Machine
	Mon  *monitor.Monitor // nil for the Host-PMP (no TEE) baseline
	Kern *kernel.Kernel
}

// NewSystem boots a machine of the given platform under the given
// isolation mode and starts the kernel. The machine's DRAM size comes from
// cfg.MemSize; under the runner the system is observed for the
// experiment's Result snapshot.
func NewSystem(plat cpu.Platform, mode monitor.Mode, cfg Config) (*System, error) {
	kcfg := kernel.DefaultConfig(cfg.MemSize)
	return bootSystem(plat, monitor.DefaultConfig(mode), &kcfg, cfg)
}

// bootSystem is NewSystem over explicit monitor and kernel configurations,
// for experiments that vary one of their fields. A nil kcfg boots the
// monitor alone (TEE-operation timing needs no kernel).
func bootSystem(plat cpu.Platform, mcfg monitor.Config, kcfg *kernel.Config, cfg Config) (*System, error) {
	mach := cpu.NewMachine(plat, cfg.MemSize, true)
	mon, err := monitor.Boot(mach, mcfg)
	if err != nil {
		return nil, fmt.Errorf("bench: booting monitor: %w", err)
	}
	s := &System{Mach: mach, Mon: mon}
	if kcfg != nil {
		if s.Kern, err = kernel.New(mach, mon, *kcfg); err != nil {
			return nil, fmt.Errorf("bench: booting kernel: %w", err)
		}
	}
	cfg.watch(s)
	return s, nil
}

// NewHostSystem boots the non-secure baseline ("Host-PMP" in Fig. 12): no
// TEE deployed, but PMP is implemented — one RWX segment covers DRAM.
func NewHostSystem(plat cpu.Platform, cfg Config) (*System, error) {
	mach := cpu.NewMachine(plat, cfg.MemSize, true)
	if err := mach.Checker.SetSegment(0, addr.Range{Base: 0, Size: addr.NAPOTCeil(cfg.MemSize)}, perm.RWX, false); err != nil {
		return nil, err
	}
	k, err := kernel.New(mach, nil, kernel.DefaultConfig(cfg.MemSize))
	if err != nil {
		return nil, err
	}
	s := &System{Mach: mach, Kern: k}
	cfg.watch(s)
	return s, nil
}

// bareRig registers a machine an experiment assembles by hand (raw
// walkers, nested tables, monitor-less checkers) before anything runs on
// it, and returns it.
func bareRig(plat cpu.Platform, memSize uint64, cfg Config) *cpu.Machine {
	mach := cpu.NewMachine(plat, memSize, true)
	cfg.watch(&System{Mach: mach})
	return mach
}

// NewEnv spawns a fresh process and returns its environment.
func (s *System) NewEnv(name string, heapPages int) (*kernel.Env, error) {
	if heapPages == 0 {
		heapPages = 64 * 1024
	}
	p, err := s.Kern.Spawn(kernel.Image{Name: name, TextPages: 32, DataPages: 32, HeapPages: heapPages})
	if err != nil {
		return nil, err
	}
	return s.Kern.NewEnv(p)
}

// paperPlatforms is the paper's two SoCs in the order every two-platform
// figure renders and simulates them: Rocket, then BOOM.
var paperPlatforms = []struct {
	name string
	plat cpu.Platform
}{{"Rocket", cpu.RocketPlatform()}, {"BOOM", cpu.BOOMPlatform()}}

// ModeNames maps the three isolation modes to the paper's labels.
var ModeNames = map[monitor.Mode]string{
	monitor.ModePMP:  "PMP",
	monitor.ModePMPT: "PMPT",
	monitor.ModeHPMP: "HPMP",
}

// AllModes is the standard comparison order.
var AllModes = []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP}
