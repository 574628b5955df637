package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hpmp/internal/obs"
)

// runTrace runs the CLI in-process and returns its exit code and streams.
func runTrace(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunTraceFileIsTheRun pins the -trace file to the run it came from on
// a run longer than the ring: the header counts every access (seen equals
// the summary's access count and exceeds kept), and the retained events
// carry the same sequence numbers as the CSV dump of the same ring.
func TestRunTraceFileIsTheRun(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "ring.csv")
	tracePath := filepath.Join(dir, "ring.trace.jsonl")
	code, stdout, stderr := runTrace(t, "-mode", "pmpt", "-workload", "qsort", "-keep", "64",
		"-csv", csvPath, "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var accesses uint64
	_, summary, _ := strings.Cut(stdout, "\naccesses: ")
	if _, err := fmt.Sscanf(summary, "%d", &accesses); err != nil {
		t.Fatalf("no access count in summary: %v\n%s", err, stdout)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, events, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seen != accesses || h.Sampled != accesses || uint64(h.Kept) >= h.Seen || h.Kept != 64 {
		t.Errorf("header seen=%d sampled=%d kept=%d, want seen=sampled=%d > kept=64",
			h.Seen, h.Sampled, h.Kept, accesses)
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(csv)), "\n")[1:]
	if len(rows) != len(events) {
		t.Fatalf("CSV has %d rows, trace %d events", len(rows), len(events))
	}
	for i, row := range rows {
		if want := strconv.FormatUint(events[i].Seq, 10); !strings.HasPrefix(row, want+",") {
			t.Errorf("row %d: CSV %q, trace seq %s", i, row, want)
		}
	}
	if last := events[len(events)-1].Seq; last != accesses-1 {
		t.Errorf("last trace seq %d, want %d (the run's final access)", last, accesses-1)
	}
}

// TestRunRejectsBadKeep: a ring must hold at least one event; anything
// smaller is a usage error, not a silent default.
func TestRunRejectsBadKeep(t *testing.T) {
	for _, keep := range []string{"0", "-3"} {
		code, _, stderr := runTrace(t, "-keep", keep)
		if code != 2 || !strings.Contains(stderr, "-keep") {
			t.Errorf("-keep %s: exit %d, stderr %q; want exit 2 naming -keep", keep, code, stderr)
		}
	}
}

// TestRunGolden pins run mode byte for byte: the stdout summary and the
// -csv dump of the retained ring for two short workloads. The CSV path is
// replaced by a fixed token in stdout so the golden does not depend on the
// temporary directory.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"hpmp-sha512", []string{"-mode", "hpmp", "-workload", "sha512", "-keep", "8"}},
		{"pmpt-qsort", []string{"-mode", "pmpt", "-workload", "qsort", "-keep", "8"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			csvPath := filepath.Join(t.TempDir(), "ring.csv")
			code, stdout, stderr := runTrace(t, append(tc.args, "-csv", csvPath)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			csv, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			got := strings.ReplaceAll(stdout, csvPath, "RING.csv") + "--- RING.csv\n" + string(csv)

			golden := filepath.Join("testdata", "run-"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create it): %v", err)
			}
			if got != string(want) {
				t.Errorf("run output differs from %s (re-run with -update if intended)\n--- got\n%s--- want\n%s",
					golden, got, want)
			}
		})
	}
}
