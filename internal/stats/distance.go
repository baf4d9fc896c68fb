// Package stats provides the statistical substrate of SubDEx: probability
// distributions over discrete rating scales, distance measures between them
// (total variation, Kullback-Leibler, Earth Mover's), streaming moments,
// worst-case confidence intervals derived from the Hoeffding-Serfling
// inequality for sampling without replacement, and a one-way ANOVA used by
// the simulated user study.
package stats

import (
	"fmt"
	"math"
)

// Distribution is a probability distribution over an ordered discrete domain,
// typically a rating scale {1..m} where index i holds the probability of
// rating value i+1. A Distribution is valid when its entries are non-negative
// and sum to 1 (within a small tolerance); use Normalize to construct one
// from raw counts.
type Distribution []float64

// NewDistributionFromCounts converts a histogram of counts into a probability
// distribution. A zero histogram yields the uniform distribution, which is
// the convention used throughout the engine for empty subgroups so that
// distance computations remain well-defined.
func NewDistributionFromCounts(counts []int) Distribution {
	return AppendDistributionFromCounts(make(Distribution, 0, len(counts)), counts)
}

// AppendDistributionFromCounts appends NewDistributionFromCounts(counts) to
// d: with a d cut from an array on the caller's stack, a distribution that
// is compared and dropped costs no allocation.
func AppendDistributionFromCounts(d Distribution, counts []int) Distribution {
	total := 0
	for _, c := range counts {
		total += c
	}
	for _, c := range counts {
		if total == 0 {
			d = append(d, 1/float64(len(counts)))
		} else {
			d = append(d, float64(c)/float64(total))
		}
	}
	return d
}

// Normalize scales the distribution in place so it sums to one. A zero vector
// becomes uniform.
func (d Distribution) Normalize() {
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if sum == 0 {
		for i := range d {
			d[i] = 1 / float64(len(d))
		}
		return
	}
	for i := range d {
		d[i] /= sum
	}
}

// IsValid reports whether d is a proper probability distribution: entries in
// [0,1] summing to 1 within tolerance.
func (d Distribution) IsValid() bool {
	if len(d) == 0 {
		return false
	}
	sum := 0.0
	for _, v := range d {
		if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) < 1e-6
}

// Mean returns the expected rating value assuming the domain is {1..len(d)}.
func (d Distribution) Mean() float64 {
	mean := 0.0
	for i, p := range d {
		mean += float64(i+1) * p
	}
	return mean
}

// Variance returns the variance of the rating value under d, with the domain
// {1..len(d)}.
func (d Distribution) Variance() float64 {
	mean := d.Mean()
	v := 0.0
	for i, p := range d {
		diff := float64(i+1) - mean
		v += p * diff * diff
	}
	return v
}

// StdDev returns the standard deviation of the rating value under d.
func (d Distribution) StdDev() float64 { return math.Sqrt(d.Variance()) }

// Clone returns an independent copy of d.
func (d Distribution) Clone() Distribution {
	c := make(Distribution, len(d))
	copy(c, d)
	return c
}

// TotalVariation returns the total variation distance between two
// distributions over the same domain: ½ Σ |p_i − q_i|, in [0,1]. This is the
// peculiarity measure of the paper (§4.1).
func TotalVariation(p, q Distribution) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: total variation of mismatched domains %d vs %d", len(p), len(q))
	}
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2, nil
}

// MustTotalVariation is TotalVariation for callers that have already
// established domain agreement; it panics on mismatch.
func MustTotalVariation(p, q Distribution) float64 {
	d, err := TotalVariation(p, q)
	if err != nil {
		panic(err)
	}
	return d
}

// KLDivergence returns the Kullback-Leibler divergence D(p‖q) in nats, the
// alternative peculiarity measure mentioned in §4.1. Terms where p_i = 0
// contribute zero; terms where p_i > 0 and q_i = 0 are smoothed with epsilon
// so exploratory comparisons of sparse histograms never return +Inf.
func KLDivergence(p, q Distribution) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: KL divergence of mismatched domains %d vs %d", len(p), len(q))
	}
	const eps = 1e-10
	sum := 0.0
	for i := range p {
		if p[i] == 0 {
			continue
		}
		qi := q[i]
		if qi < eps {
			qi = eps
		}
		sum += p[i] * math.Log(p[i]/qi)
	}
	if sum < 0 { // guard tiny negative rounding
		sum = 0
	}
	return sum, nil
}

// EarthMovers returns the Earth Mover's Distance between two distributions
// over the same ordered 1-D domain with unit ground distance between adjacent
// rating values. On the line, EMD has the closed form Σ |CDF_p(i) − CDF_q(i)|.
// The paper adopts EMD as the rating-map distance (§3.2.4) because it
// respects the ordering of the rating scale, unlike TVD.
func EarthMovers(p, q Distribution) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: EMD of mismatched domains %d vs %d", len(p), len(q))
	}
	cum := 0.0
	total := 0.0
	for i := range p {
		cum += p[i] - q[i]
		total += math.Abs(cum)
	}
	return total, nil
}

// MustEarthMovers is EarthMovers with a panic on domain mismatch.
func MustEarthMovers(p, q Distribution) float64 {
	d, err := EarthMovers(p, q)
	if err != nil {
		panic(err)
	}
	return d
}

// NormalizedEarthMovers rescales EMD into [0,1] by dividing by the maximum
// possible EMD on the domain (all mass at opposite endpoints = len-1).
func NormalizedEarthMovers(p, q Distribution) (float64, error) {
	d, err := EarthMovers(p, q)
	if err != nil {
		return 0, err
	}
	if len(p) <= 1 {
		return 0, nil
	}
	return d / float64(len(p)-1), nil
}
