package main

import (
	"math"
	"sort"
	"time"
)

// op is one client operation of a workload's fixed sequence, as one round
// observed it. Walk, Kind, Arg and Digest identify the operation and what
// it displayed; Dur is how long this round waited for it.
type op struct {
	Walk int
	// Kind is create, step, apply, rec, back or delete.
	Kind string
	// Arg is what the operation was asked to do besides its kind: the
	// predicate of a create or apply, the index of a followed
	// recommendation, whether a back moved.
	Arg string
	// Digest fingerprints the maps a step displayed (empty otherwise).
	Digest string
	Dur    time.Duration
	// Bad marks an error, a refusal, or a Degraded (anytime) step.
	Bad bool
}

func (o op) same(p op) bool {
	return o.Walk == p.Walk && o.Kind == p.Kind && o.Arg == p.Arg && o.Digest == p.Digest
}

// reproduces reports whether a round ran round 0's operation sequence and
// displayed round 0's maps. Rounds are repetitions of fixed seeded work, so
// anything else is a correctness failure, never a latency sample.
func reproduces(ref, round []op) bool {
	if len(ref) != len(round) {
		return false
	}
	for i := range ref {
		if !ref[i].same(round[i]) {
			return false
		}
	}
	return true
}

// cleanLatencies is the noise filter. Interference on a shared box only
// ever adds time, in bursts, so for every operation i of the fixed sequence
// the clean latency is the minimum over the rounds that reproduce round 0.
// It returns the clean latencies and the indices of rounds that did not
// reproduce (round 0 reproduces itself by definition).
func cleanLatencies(rounds [][]op) (clean []time.Duration, bad []int) {
	if len(rounds) == 0 {
		return nil, nil
	}
	ref := rounds[0]
	clean = make([]time.Duration, len(ref))
	for i, o := range ref {
		clean[i] = o.Dur
	}
	for r := 1; r < len(rounds); r++ {
		if !reproduces(ref, rounds[r]) {
			bad = append(bad, r)
			continue
		}
		for i, o := range rounds[r] {
			if o.Dur < clean[i] {
				clean[i] = o.Dur
			}
		}
	}
	return clean, bad
}

// failures counts what fail_frac counts: every operation of a round that
// did not reproduce, plus the Bad operations of the rounds that did.
func failures(rounds [][]op, bad []int) (failed, attempted int) {
	isBad := make(map[int]bool, len(bad))
	for _, r := range bad {
		isBad[r] = true
	}
	for r, ops := range rounds {
		attempted += len(ops)
		if isBad[r] {
			failed += len(ops)
			continue
		}
		for _, o := range ops {
			if o.Bad {
				failed++
			}
		}
	}
	return failed, attempted
}

// minTailSamples is how many samples must lie beyond a percentile for it
// to be reported (choosing-metrics: "the highest percentile that has at
// least ten samples beyond it").
const minTailSamples = 10

// tailSamples is the number of samples ranked above the p-th percentile
// of n samples.
func tailSamples(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// percentileSupported reports whether n samples carry the p-th percentile.
func percentileSupported(n int, p float64) bool {
	return tailSamples(n, p) >= minTailSamples
}

// percentile returns the p-th percentile (0 ≤ p ≤ 1) of sorted values by
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
