package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden output")

// TestRunGolden pins hpmpviz's stdout byte for byte in both modes: a saved
// metrics snapshot (the committed fig10 baseline) and a quick experiment
// run.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"metrics-fig10", []string{"-metrics", filepath.Join("..", "..", "internal", "integration", "testdata", "metrics_baseline", "fig10.json")}},
		{"quick-fig13", []string{"-quick", "fig13"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create it): %v", err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("output differs from %s (re-run with -update if intended)\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}

// TestRunUsage: bad invocations exit 2 with a message and print nothing
// to stdout.
func TestRunUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nope"},
		{"fig10", "fig13"},
		{"-metrics", "m.json", "fig10"},
		{"-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, a message and no output", args, code, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-metrics", filepath.Join(t.TempDir(), "missing.json")}, &stdout, &stderr); code != 1 {
		t.Errorf("missing metrics file: exit %d, want 1", code)
	}
}
