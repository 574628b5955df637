package simcfg

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"hpmp/internal/addr"
	"hpmp/internal/kernel"
	"hpmp/internal/monitor"
)

func TestDefaultValidates(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatalf("Default() must validate: %v", err)
	}
	if m.Platform != "rocket" || m.Mode != ModeHPMP || m.MemSize != 512*addr.MiB {
		t.Fatalf("unexpected default: %+v", m)
	}
}

func TestWithDefaultsKeepsExplicit(t *testing.T) {
	m := Machine{Platform: "boom", Mode: ModePMPT, MemSize: MinMemSize, TableDepth: 3}.WithDefaults()
	if m.Platform != "boom" || m.Mode != ModePMPT || m.MemSize != MinMemSize || m.TableDepth != 3 {
		t.Fatalf("WithDefaults clobbered explicit fields: %+v", m)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
		want string
	}{
		{"platform", func(m *Machine) { m.Platform = "sifive" }, "platform"},
		{"mode", func(m *Machine) { m.Mode = "sgx" }, "mode"},
		{"mem-zero", func(m *Machine) { m.MemSize = 0 }, "minimum"},
		{"mem-small", func(m *Machine) { m.MemSize = 16 * addr.MiB }, "minimum"},
		{"mem-unaligned", func(m *Machine) { m.MemSize = 192*addr.MiB + 4096 }, "multiple"},
		{"mem-large", func(m *Machine) { m.MemSize = MaxMemSize + PoolAlign }, "16384 MiB maximum"},
		{"depth", func(m *Machine) { m.TableDepth = 5 }, "depth"},
		{"depth-mode", func(m *Machine) { m.Mode = ModePMP; m.TableDepth = 3 }, "permission-table mode"},
		{"l2tlb-not-pow2", func(m *Machine) { m.L2TLBEntries = 3 }, "power of two"},
		{"l2tlb-large", func(m *Machine) { m.L2TLBEntries = 2 * MaxEntries }, "l2tlb of 8192 entries is above the 4096-entry maximum"},
		{"pwc-large", func(m *Machine) { m.PWCEntries = MaxEntries + 1 }, "pwc of 4097 entries is above"},
		{"pmptw-cache-large", func(m *Machine) { m.PMPTWCache = 1 << 40 }, "pmptw_cache"},
		{"pmptw-cache-negative", func(m *Machine) { m.PMPTWCache = -1 }, "pmptw_cache of -1 entries is negative"},
	}
	for _, tc := range cases {
		m := Default()
		tc.mut(&m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, m)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFlagRemapKeepsPR8Semantics(t *testing.T) {
	parse := func(args ...string) Machine {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := AddFlags(fs, "")
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		return f.Machine()
	}

	// Defaults: everything platform-default, canonical machine.
	m := parse()
	if m != Default() {
		t.Fatalf("default flags = %+v, want %+v", m, Default())
	}
	// Flag 0 = structure absent -> internal -1; flag <0 = default -> 0.
	m = parse("-l2tlb", "0", "-pwc", "0", "-pmptw-cache", "0")
	if m.L2TLBEntries != -1 || m.PWCEntries != -1 || m.PMPTWCache != 0 {
		t.Fatalf("flag-zero remap wrong: %+v", m)
	}
	m = parse("-l2tlb", "-1", "-pwc", "-7")
	if m.L2TLBEntries != 0 || m.PWCEntries != 0 {
		t.Fatalf("flag-negative remap wrong: %+v", m)
	}
	// Positive overrides pass through; the rest of the surface too.
	m = parse("-platform", "boom", "-mode", "pmpt", "-mem", "160",
		"-l2tlb", "128", "-pwc", "16", "-pmptw-cache", "32", "-depth", "3")
	want := Machine{Platform: "boom", Mode: ModePMPT, MemSize: MinMemSize,
		L2TLBEntries: 128, PWCEntries: 16, PMPTWCache: 32, TableDepth: 3}
	if m != want {
		t.Fatalf("full flag surface = %+v, want %+v", m, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := Machine{Platform: "boom", Mode: ModePMPT, MemSize: 192 * addr.MiB,
		L2TLBEntries: -1, PWCEntries: 8, PMPTWCache: 16, TableDepth: 4}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"mem_mib":192`) {
		t.Fatalf("memory must travel in MiB: %s", data)
	}
	var out Machine
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %s -> %+v", in, data, out)
	}
}

func TestJSONRejectsUnknownFields(t *testing.T) {
	var m Machine
	err := json.Unmarshal([]byte(`{"pwc_entries": 8}`), &m)
	if err == nil {
		t.Fatal("typo'd field must be rejected")
	}
}

func TestMonitorMode(t *testing.T) {
	for _, mode := range []Mode{ModePMP, ModePMPT, ModeHPMP} {
		if _, ok := mode.MonitorMode(); !ok {
			t.Errorf("%s must map to a monitor mode", mode)
		}
	}
	if _, ok := ModeNone.MonitorMode(); ok {
		t.Error("none has no monitor mode")
	}
	if _, ok := Mode("sgx").MonitorMode(); ok {
		t.Error("unknown mode must not map")
	}
}

func TestWorkloadScaleValidate(t *testing.T) {
	if err := (WorkloadScale{}).Validate(); err != nil {
		t.Fatalf("zero scale must validate: %v", err)
	}
	if err := (WorkloadScale{RedisKeyspace: -1}).Validate(); err == nil {
		t.Fatal("negative scale must be rejected")
	}
	top := WorkloadScale{RedisKeyspace: MaxRedisKeyspace, RedisRequests: MaxRedisRequests,
		ServerlessReps: MaxServerlessReps, ColdStarts: MaxColdStarts}
	if err := top.Validate(); err != nil {
		t.Fatalf("every knob at its ceiling must validate: %v", err)
	}
	for _, over := range []WorkloadScale{
		{RedisKeyspace: MaxRedisKeyspace + 1}, {RedisRequests: MaxRedisRequests + 1},
		{ServerlessReps: MaxServerlessReps + 1}, {ColdStarts: MaxColdStarts + 1},
	} {
		if err := over.Validate(); err == nil {
			t.Errorf("%+v above its ceiling must be rejected", over)
		}
	}
	if Or(0, 7) != 7 || Or(3, 7) != 3 {
		t.Fatal("Or override semantics wrong")
	}
}

// TestMinMemSizeBoots pins the floor to a machine the kernel can actually
// run on: at exactly MinMemSize, on both platforms and under every mode,
// the kernel boots and a process can store to and load from its heap.
func TestMinMemSizeBoots(t *testing.T) {
	for _, plat := range []string{"rocket", "boom"} {
		for _, mode := range Modes {
			bootAndStore(t, Machine{Platform: plat, Mode: mode, MemSize: MinMemSize})
		}
	}
}

// TestMaxMemSizeBoots pins the ceiling the same way: a machine at exactly
// MaxMemSize boots under a segment mode and a table mode.
func TestMaxMemSizeBoots(t *testing.T) {
	for _, mode := range []Mode{ModePMP, ModeHPMP} {
		bootAndStore(t, Machine{Platform: "rocket", Mode: mode, MemSize: MaxMemSize})
	}
}

// bootAndStore validates and assembles m, boots its monitor (if any) and
// kernel, and checks a process can store to and load from its heap.
func bootAndStore(t *testing.T, m Machine) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("%s: %v", m, err)
	}
	mach := m.Assemble()
	var mon *monitor.Monitor
	if mm, ok := m.Mode.MonitorMode(); ok {
		var err error
		if mon, err = monitor.Boot(mach, monitor.DefaultConfig(mm)); err != nil {
			t.Fatalf("%s: monitor boot: %v", m, err)
		}
	}
	k, err := kernel.New(mach, mon, kernel.DefaultConfig(m.MemSize))
	if err != nil {
		t.Fatalf("%s: kernel boot: %v", m, err)
	}
	p, err := k.Spawn(kernel.Image{Name: "floor", TextPages: 8, DataPages: 8, HeapPages: 64})
	if err != nil {
		t.Fatalf("%s: spawn: %v", m, err)
	}
	env, err := k.NewEnv(p)
	if err != nil {
		t.Fatalf("%s: env: %v", m, err)
	}
	env.Store64(p.Heap(), 0x5eed)
	if err := env.Err(); err != nil {
		t.Fatalf("%s: store: %v", m, err)
	}
	if v, err := env.Load64(p.Heap()), env.Err(); err != nil || v != 0x5eed {
		t.Fatalf("%s: load = %#x, %v; want 0x5eed", m, v, err)
	}
}

func TestAssembleGeometry(t *testing.T) {
	// Absent structures really come out zero-capacity; overrides stick;
	// a positive PMPTWCache attaches a walker cache of that size.
	m := Machine{Platform: "rocket", Mode: ModeHPMP, MemSize: MinMemSize,
		L2TLBEntries: -1, PWCEntries: 3, PMPTWCache: 16}
	mach := m.Assemble()
	if plat := mach.Plat; plat.MMU.L2TLBEntries != 0 || plat.MMU.PWCEntries != 3 {
		t.Fatalf("geometry overrides not applied: %+v", plat)
	}
	c := mach.PMPTWCache
	if c == nil || mach.Checker.Walker.Cache != c {
		t.Fatal("PMPTWCache > 0 must attach a walker cache")
	}
	for k := uint64(1); k <= 17; k++ {
		c.Insert(k, k)
	}
	_, first := c.Lookup(1)
	_, second := c.Lookup(2)
	if first || !second {
		t.Fatalf("17 inserts: first key cached %v, second %v; want a 16-entry cache", first, second)
	}
	mach = Machine{Platform: "rocket", Mode: ModeHPMP, MemSize: MinMemSize}.Assemble()
	if mach.PMPTWCache != nil || mach.Checker.Walker.Cache != nil {
		t.Fatal("default machine must have no PMPTW cache (paper methodology)")
	}
	none := Machine{Platform: "rocket", Mode: ModeNone, MemSize: MinMemSize}.Assemble()
	if none.Checker != nil {
		t.Fatal("ModeNone machine must carry no checker")
	}
}
