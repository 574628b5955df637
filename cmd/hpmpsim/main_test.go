package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hpmp/internal/bench"
)

// injectFailure registers one deliberately failing experiment in the
// process-wide registry. Its ID sorts last naturally, and it produces no
// stdout output, so the other tests in this binary (including the
// determinism comparison) see identical streams with or without it.
var injectFailure = sync.OnceFunc(func() {
	bench.Register(bench.Experiment{
		ID:    "zz-fail",
		Title: "injected failing experiment (test only)",
		Run: func(cfg bench.Config) (*bench.Result, error) {
			return nil, errors.New("injected failure for run-all isolation test")
		},
	})
})

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunAllIsolatesInjectedFailure is the headline bugfix test: with a
// failing experiment in the registry, `run all` must still run every other
// experiment, list the failure in the summary, and exit nonzero.
func TestRunAllIsolatesInjectedFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick evaluation")
	}
	injectFailure()
	code, stdout, stderr := runCLI(t, "-quick", "-parallel", "2", "run", "all")
	if code != 1 {
		t.Errorf("exit code %d, want 1 (failure after attempting everything)", code)
	}
	// Every real experiment must still have produced its tables.
	for _, e := range bench.All() {
		if e.ID == "zz-fail" {
			continue
		}
		if !strings.Contains(stdout, "### "+e.ID) {
			t.Errorf("experiment %s missing from output despite the injected failure", e.ID)
		}
	}
	if !strings.Contains(stderr, "zz-fail") {
		t.Errorf("summary does not name the failing experiment:\n%s", stderr)
	}
	if !strings.Contains(stderr, "injected failure") {
		t.Errorf("summary does not carry the error text:\n%s", stderr)
	}
	if !strings.Contains(stderr, "1 of") {
		t.Errorf("missing failure count line:\n%s", stderr)
	}
}

// TestRunAllDeterministicOutput asserts the acceptance criterion that
// -parallel N output is byte-identical to -parallel 1.
func TestRunAllDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick evaluation twice")
	}
	injectFailure()
	_, seq, _ := runCLI(t, "-quick", "-parallel", "1", "run", "all")
	_, par, _ := runCLI(t, "-quick", "-parallel", "8", "run", "all")
	if seq != par {
		t.Errorf("stdout differs between -parallel 1 and -parallel 8 (lengths %d vs %d)",
			len(seq), len(par))
	}
	if !strings.Contains(seq, "### fig10") {
		t.Errorf("run all produced no fig10 output:\n%.400s", seq)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("boots simulated systems")
	}
	code, stdout, stderr := runCLI(t, "-quick", "run", "fig3a")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "### fig3a") {
		t.Errorf("missing result:\n%s", stdout)
	}
	// Single-experiment success keeps stderr free of the summary table.
	if strings.Contains(stderr, "run summary") {
		t.Errorf("unexpected summary for single success:\n%s", stderr)
	}
}

func TestCSVEmitsCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("boots simulated systems")
	}
	code, stdout, stderr := runCLI(t, "-quick", "-csv", "run", "fig3a")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "— counters") || !strings.Contains(stdout, "monitor.boot") {
		t.Errorf("CSV output missing counter snapshot:\n%s", stdout)
	}
}

func TestListUsesNaturalOrder(t *testing.T) {
	code, stdout, _ := runCLI(t, "list")
	if code != 0 {
		t.Fatalf("list exited %d", code)
	}
	i3 := strings.Index(stdout, "fig3a")
	i10 := strings.Index(stdout, "fig10")
	if i3 < 0 || i10 < 0 || i3 > i10 {
		t.Errorf("list must order fig3a before fig10:\n%s", stdout)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-mem", "0", "run", "all"},
		{"-mem", "16", "run", "all"},
		{"-parallel", "0", "run", "all"},
		{"-parallel", "-3", "run", "all"},
		{"run"},
		{"run", "no-such-experiment"},
		{"frobnicate"},
		{},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
	if code, _, stderr := runCLI(t, "-mem", "0", "run", "all"); code != 2 || !strings.Contains(stderr, "minimum") {
		t.Errorf("-mem 0 must fail with a clear message, got exit %d: %s", code, stderr)
	}
}

// TestReplayValidatesMachineFirst: replay checks the machine flags before
// it reads the trace, so a bad flag is reported as such even when the
// trace file is empty too.
func TestReplayValidatesMachineFirst(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.trace.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-pmptw-cache", "-1", "replay", empty)
	if code != 2 || !strings.Contains(stderr, "simcfg: pmptw_cache") {
		t.Errorf("exit %d, stderr %q; want exit 2 with the simcfg error", code, stderr)
	}
}
