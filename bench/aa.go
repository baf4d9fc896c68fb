package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is what the acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runAA is the A/A check. It runs every workload 2N times, each run in a
// process of its own, alternately labelled A and B; pair i of both sets
// uses seed+i, so each set spans N seeds exactly as the acceptance check's
// ten runs do. Per end-to-end metric it prints each set's quartiles, the
// spread between runs (interquartile distance over the median) and the
// distance between the two medians against the metric's bound. It reports
// false when two medians of the same code differ by more than half a bound
// or a spread exceeds its bound.
func runAA(ctx context.Context, w io.Writer, n int, seed int64, seconds int, outDir string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, s := range specs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			label := i % 2
			res, err := runChild(ctx, self, s.name, seed+int64(i/2), seconds, outDir)
			if err != nil {
				return false, fmt.Errorf("%s run %d: %w", s.name, i, err)
			}
			if !res.Correct || res.Failed != 0 {
				return false, fmt.Errorf("%s run %d: %d of %d operations failed", s.name, i, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sets[label][name] = append(sets[label][name], m.Value)
			}
		}
		fmt.Fprintf(w, "\n%s (%d runs per set, seeds %d..%d)\n", s.name, n, seed, seed+int64(n)-1)
		fmt.Fprintf(w, "| metric | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | median gap | bound |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
		for _, e := range endToEnd {
			a1, a2, a3 := quartiles(sets[0][e.name])
			b1, b2, b3 := quartiles(sets[1][e.name])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			gap := math.Abs(a2-b2) / a2
			verdict := ""
			// setup_s is exempt from the spread rule, as in the acceptance check.
			if gap > e.bound/2 || (e.name != "setup_s" && math.Max(spreadA, spreadB) > e.bound) {
				verdict = " **FAIL**"
				ok = false
			}
			fmt.Fprintf(w, "| %s | %.5g / %.5g / %.5g | %.5g / %.5g / %.5g | %.1f%% | %.1f%% | %.1f%%%s | %.0f%% |\n",
				e.name, a1, a2, a3, b1, b2, b3, 100*spreadA, 100*spreadB, 100*gap, verdict, 100*e.bound)
		}
	}
	return ok, nil
}

// runChild makes one untraced run in a child process and parses its last
// line of output.
func runChild(ctx context.Context, self, name string, seed int64, seconds int, outDir string) (*outcome, error) {
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-out", outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res outcome
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}
