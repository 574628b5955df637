package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// update rewrites the golden file instead of comparing against it:
//
//	go test ./examples/redis -update
var update = flag.Bool("update", false, "rewrite the golden file with current output")

// TestStdoutGolden pins the example's complete stdout, so that a change to
// anything the example reaches shows up as a diff here.
func TestStdoutGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/stdout.golden"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("stdout differs from %s (re-run with -update if the change is intended)\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
