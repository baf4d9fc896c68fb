package stats

import (
	"math"
	"sort"
)

// Running accumulates streaming mean and variance using Welford's algorithm.
// It backs the engine's phase-based partial results: each phase feeds another
// fraction of the rating group in, and the current mean utility and its
// confidence interval are read off without re-scanning earlier fractions.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add feeds one observation.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// AddN feeds the same observation n times (used when a batch shares a value).
func (r *Running) AddN(x float64, n int) {
	for i := 0; i < n; i++ {
		r.Add(x)
	}
}

// Merge folds another accumulator into r (parallel reduction), using the
// Chan et al. pairwise update.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	delta := o.mean - r.mean
	r.mean += delta * float64(o.n) / float64(n)
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(n)
	r.n = n
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the running mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance (0 when fewer than 2 samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MinMax returns the minimum and maximum of xs; it returns (0,0) for empty
// input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// MinMaxNormalize rescales xs in place into [0,1]. Constant inputs map to a
// vector of 0.5, matching the normalization convention of Somech et al. [51]
// used by the paper for putting interestingness criteria on a common scale.
func MinMaxNormalize(xs []float64) {
	lo, hi := MinMax(xs)
	if hi-lo < 1e-12 {
		for i := range xs {
			xs[i] = 0.5
		}
		return
	}
	for i := range xs {
		xs[i] = (xs[i] - lo) / (hi - lo)
	}
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SpearmanRho computes Spearman's rank correlation between two paired
// samples, with average ranks for ties. It returns 0 for degenerate inputs
// (fewer than 2 pairs or zero rank variance). The sentiment pipeline uses
// it to quantify how faithfully extracted ratings track latent scores.
func SpearmanRho(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	rx := ranks(xs)
	ry := ranks(ys)
	mx, my := Mean(rx), Mean(ry)
	var num, dx, dy float64
	for i := range rx {
		a := rx[i] - mx
		b := ry[i] - my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

// ranks assigns average ranks (1-based) with tie handling.
func ranks(xs []float64) []float64 {
	type iv struct {
		v float64
		i int
	}
	sorted := make([]iv, len(xs))
	for i, v := range xs {
		sorted[i] = iv{v, i}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].v < sorted[b].v })
	out := make([]float64, len(xs))
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1].v == sorted[i].v {
			j++
		}
		avgRank := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[sorted[k].i] = avgRank
		}
		i = j + 1
	}
	return out
}
