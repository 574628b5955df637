package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// runCompare measures a change against its parent: two hpmpbench binaries,
// built from each commit, run in pairs on the same seed with the side that
// runs first alternating, so drift in the machine's load falls on both
// sides alike. It prints each side's median and quartiles per workload and
// end-to-end metric, with a verdict.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpmpbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "hpmpbench binary built from the parent commit")
	head := fs.String("head", "", "hpmpbench binary built from the change")
	pairs := fs.Int("pairs", 10, "pairs to run per workload")
	seconds := fs.Int("seconds", 10, "measured window of each run in seconds")
	names := fs.String("workloads", "all", "comma-separated workloads, or all")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" || *pairs < 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "hpmpbench compare: want -base BIN -head BIN, -pairs >= 1, -seconds >= 1")
		return 2
	}
	var selected []workload
	for _, n := range strings.Split(*names, ",") {
		ws, err := selectWorkloads(strings.TrimSpace(n))
		if err != nil {
			fmt.Fprintln(stderr, "hpmpbench compare:", err)
			return 2
		}
		selected = append(selected, ws...)
	}

	code := 0
	for _, w := range selected {
		vals := [2]map[string][]float64{{}, {}}
		var incorrect [2]int
		for i := range *pairs {
			seed := uint64(i + 1)
			sides := []int{0, 1}
			if i%2 == 1 {
				sides = []int{1, 0}
			}
			for _, side := range sides {
				bin := []string{*base, *head}[side]
				line, err := runBinary(bin, w.Name, seed, *seconds)
				if err != nil {
					fmt.Fprintf(stderr, "hpmpbench compare: %s %s seed %d: %v\n", bin, w.Name, seed, err)
					return 1
				}
				if !line.Correct {
					incorrect[side]++
				}
				for name, mv := range line.Metrics {
					vals[side][name] = append(vals[side][name], mv.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "== %s: %d pairs, %d s windows; incorrect runs: base %d, head %d\n",
			w.Name, *pairs, *seconds, incorrect[0], incorrect[1])
		fmt.Fprintf(stdout, "  %-14s %-32s %-32s %6s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
		if incorrect[1] > incorrect[0] {
			code = 1
		}
		for _, d := range endToEnd {
			v := judge(d, vals[0][d.Name], vals[1][d.Name])
			if v.Verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "  %-14s %-32s %-32s %3d/%-2d  %s\n", d.Name, quartileText(v.Base), quartileText(v.Head),
				v.Wins, len(vals[0][d.Name]), v.Verdict)
		}
	}
	return code
}

func quartileText(q [3]float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}

// runBinary runs one hpmpbench binary on one workload and parses the
// result line it prints last.
func runBinary(bin, workload string, seed uint64, seconds int) (resultLine, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stdout, cmd.Stderr = &out, &errOut
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, errors.Join(runErr, fmt.Errorf("no result line: %w\n%s", err, errOut.String()))
	}
	return line, nil
}

// comparison is one metric's verdict on one workload.
type comparison struct {
	Base, Head [3]float64 // first quartile, median, third quartile
	Wins       int        // pairs in which the head read better
	Verdict    string
}

// minPairs is the fewest pairs on which a gain may be claimed.
const minPairs = 10

// judge applies the pair rule to one metric. improved: over at least
// minPairs pairs, the head wins at least nine in ten and the medians differ
// by more than the base's interquartile distance. unresolved: either side's
// spread (interquartile distance over median) exceeds the bound, unless
// every head run reads better than every base run. regressed: the head's
// median is worse than the base's by more than the bound. Otherwise
// no-worse.
func judge(d metricDef, base, head []float64) comparison {
	var c comparison
	c.Base[0], c.Base[1], c.Base[2] = quartiles(base)
	c.Head[0], c.Head[1], c.Head[2] = quartiles(head)
	sign := 1.0 // positive differences are worse
	if d.Better == "higher" {
		sign = -1
	}
	for i := range min(len(base), len(head)) {
		if sign*(head[i]-base[i]) < 0 {
			c.Wins++
		}
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) >= 0 {
				allBetter = false
			}
		}
	}
	spread := func(q [3]float64) float64 { return ratio(q[2]-q[0], math.Abs(q[1])) }
	worse := sign * ratio(c.Head[1]-c.Base[1], math.Abs(c.Base[1]))
	switch {
	case len(base) == 0 || len(head) == 0:
		c.Verdict = "unresolved"
	case len(base) >= minPairs && c.Wins*10 >= 9*len(base) && math.Abs(c.Head[1]-c.Base[1]) > c.Base[2]-c.Base[0]:
		c.Verdict = "improved"
	case spread(c.Base) > d.Bound || spread(c.Head) > d.Bound:
		if allBetter {
			c.Verdict = "no-worse"
		} else {
			c.Verdict = "unresolved"
		}
	case worse > d.Bound:
		c.Verdict = "regressed"
	default:
		c.Verdict = "no-worse"
	}
	return c
}
