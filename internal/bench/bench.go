// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§8), each regenerating the same rows/series
// the paper reports, on the simulated platforms. Absolute numbers differ
// from the FPGA (documented in EXPERIMENTS.md); orderings, crossovers, and
// rough factors are the reproduction target.
package bench

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

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
	// Machine is the unified machine configuration (internal/simcfg).
	// Experiments pick their own platform and isolation mode per paper
	// figure, so only MemSize and the cache-geometry overrides apply to
	// the systems they boot; Platform/Mode carry the canonical defaults.
	// Embedded, so the historical cfg.MemSize spelling keeps working.
	simcfg.Machine
	// Workload scales the traffic-side workloads beyond the paper's
	// defaults (miniredis keyspace/request count, serverless invocation
	// reps, cold-start flood size). Zero value = tier defaults.
	Workload simcfg.WorkloadScale

	// obs, when set by the runner, collects counters from every System and
	// machine the experiment boots. Config is passed by value, so the
	// pointer is shared across the copies one experiment makes.
	obs *observer
	// tracer, when set by the runner, is attached to every machine the
	// experiment boots via cpu.Machine.SetTracer, so the translation-path
	// event trace covers the whole experiment.
	tracer *obs.Tracer
}

// DefaultConfig returns the full-size configuration.
func DefaultConfig() Config {
	return Config{Machine: simcfg.Default()}
}

// Validate rejects configurations that would only fail later, deep inside
// an experiment. The machine checks live in simcfg — the one validation
// path shared with replay and the daemon.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	return c.Workload.Validate()
}

// observe registers a machine's counter sets and latency histograms (the
// list cpu.Machine keeps) with the run's observer and attaches the run's
// tracer (when one is configured) to the machine's translation-path hooks;
// a no-op outside the runner.
func (c Config) observe(m *cpu.Machine) {
	if m == nil {
		return
	}
	if c.tracer != nil {
		m.SetTracer(c.tracer)
	}
	if c.obs == nil {
		return
	}
	c.obs.add(m.MergeCounters)
	c.obs.addHists(func(into map[string]*stats.Histogram) {
		m.EachHistogram(func(family string, h *stats.Histogram) { mergeHist(into, family, h) })
	})
}

// mergeHist folds one machine's latency histogram into the experiment-wide
// family map, creating the family on first sight. Nil sources (a machine
// assembled without the structure) are skipped.
func mergeHist(into map[string]*stats.Histogram, name string, src *stats.Histogram) {
	if src == nil {
		return
	}
	dst, ok := into[name]
	if !ok {
		dst = stats.DefaultLatencyHistogram()
		into[name] = dst
	}
	dst.Merge(src)
}

// observeKernel registers a kernel's counters with the run's observer.
func (c Config) observeKernel(k *kernel.Kernel) {
	if c.obs == nil || k == nil {
		return
	}
	c.obs.add(func(into *stats.Counters) { into.Merge(&k.Counters) })
}

// observeMonitor registers a monitor's counters with the run's observer.
func (c Config) observeMonitor(m *monitor.Monitor) {
	if c.obs == nil || m == nil {
		return
	}
	c.obs.add(func(into *stats.Counters) { into.Merge(&m.Counters) })
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	// Notes records methodology details worth printing with the tables.
	Notes []string

	// Wall is the experiment's wall-clock duration, filled in by the
	// runner. It is intentionally not part of Render(): wall times vary
	// run to run, while the tables are deterministic.
	Wall time.Duration
	// Counters aggregates the cpu/mmu/kernel/monitor counters of every
	// System the experiment booted under the runner — a per-experiment
	// observability snapshot (see CountersCSV). Also excluded from
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

// ExperimentSpec is one registered experiment: the run function plus the
// metadata the CLI (`list`, `describe`), the metrics exporter, and the
// spec-conformance test are driven by. It replaces the bare (id, title,
// func) registry.
type ExperimentSpec struct {
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

// Experiment aliases ExperimentSpec — the pre-redesign name, kept so call
// sites read naturally where the metadata is irrelevant.
type Experiment = ExperimentSpec

var (
	regMu    sync.Mutex
	registry []ExperimentSpec
)

// idPattern constrains experiment IDs to lowercase alphanumerics with
// single interior dashes — the shape every figure/table id has.
var idPattern = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)

// Register adds an experiment to the registry. It panics on a duplicate or
// malformed ID: both are programming errors that would otherwise surface
// as an ambiguous ByID much later. An empty Cost defaults to CostMedium.
func Register(e ExperimentSpec) {
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

func register(spec ExperimentSpec) { Register(spec) }

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

// System is a fully booted stack: machine + monitor + kernel.
type System struct {
	Mach *cpu.Machine
	Mon  *monitor.Monitor // nil for the Host-PMP (no TEE) baseline
	Kern *kernel.Kernel
	Mode monitor.Mode
}

// NewSystem boots a machine of the given platform under the given
// isolation mode and starts the kernel. The machine's DRAM size comes from
// cfg.MemSize; under the runner the system's counters are observed for the
// experiment's Result snapshot.
func NewSystem(plat cpu.Platform, mode monitor.Mode, cfg Config) (*System, error) {
	mach := cpu.NewMachine(plat, cfg.MemSize)
	mon, err := monitor.Boot(mach, monitor.DefaultConfig(mode))
	if err != nil {
		return nil, fmt.Errorf("bench: booting monitor: %w", err)
	}
	k, err := kernel.New(mach, mon, kernel.DefaultConfig(cfg.MemSize))
	if err != nil {
		return nil, fmt.Errorf("bench: booting kernel: %w", err)
	}
	cfg.observe(mach)
	cfg.observeKernel(k)
	cfg.observeMonitor(mon)
	return &System{Mach: mach, Mon: mon, Kern: k, Mode: mode}, nil
}

// NewHostSystem boots the non-secure baseline ("Host-PMP" in Fig. 12): no
// TEE deployed, but PMP is implemented — one RWX segment covers DRAM.
func NewHostSystem(plat cpu.Platform, cfg Config) (*System, error) {
	mach := cpu.NewMachine(plat, cfg.MemSize)
	if err := mach.Checker.SetSegment(0, addr.Range{Base: 0, Size: napotCeil(cfg.MemSize)}, perm.RWX, false); err != nil {
		return nil, err
	}
	k, err := kernel.New(mach, nil, kernel.DefaultConfig(cfg.MemSize))
	if err != nil {
		return nil, err
	}
	cfg.observe(mach)
	cfg.observeKernel(k)
	return &System{Mach: mach, Mon: nil, Kern: k, Mode: monitor.ModePMP}, nil
}

func napotCeil(size uint64) uint64 {
	n := uint64(1)
	for n < size {
		n <<= 1
	}
	return n
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

// ModeNames maps the three isolation modes to the paper's labels.
var ModeNames = map[monitor.Mode]string{
	monitor.ModePMP:  "PMP",
	monitor.ModePMPT: "PMPT",
	monitor.ModeHPMP: "HPMP",
}

// AllModes is the standard comparison order.
var AllModes = []monitor.Mode{monitor.ModePMP, monitor.ModePMPT, monitor.ModeHPMP}
