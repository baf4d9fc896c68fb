package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// randomDistribution builds a valid distribution of the given length from a
// rand source, for property tests.
func randomDistribution(rng *rand.Rand, n int) Distribution {
	d := make(Distribution, n)
	for i := range d {
		d[i] = rng.Float64()
	}
	d.Normalize()
	return d
}

func TestNewDistributionFromCounts(t *testing.T) {
	d := NewDistributionFromCounts([]int{1, 2, 3, 4})
	if !d.IsValid() {
		t.Fatalf("distribution invalid: %v", d)
	}
	if !almostEqual(d[0], 0.1, 1e-12) || !almostEqual(d[3], 0.4, 1e-12) {
		t.Fatalf("unexpected probabilities: %v", d)
	}
}

func TestNewDistributionFromZeroCounts(t *testing.T) {
	d := NewDistributionFromCounts([]int{0, 0, 0, 0, 0})
	if !d.IsValid() {
		t.Fatalf("zero counts must yield a valid (uniform) distribution, got %v", d)
	}
	for _, p := range d {
		if !almostEqual(p, 0.2, 1e-12) {
			t.Fatalf("expected uniform, got %v", d)
		}
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	d := Distribution{0, 0, 0}
	d.Normalize()
	if !d.IsValid() {
		t.Fatalf("normalized zero vector invalid: %v", d)
	}
}

func TestDistributionMeanVariance(t *testing.T) {
	// All mass at rating 3 on a 1..5 scale.
	d := Distribution{0, 0, 1, 0, 0}
	if got := d.Mean(); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := d.Variance(); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Variance = %v, want 0", got)
	}
	// Half at 1, half at 5: mean 3, variance 4.
	d = Distribution{0.5, 0, 0, 0, 0.5}
	if got := d.Mean(); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := d.Variance(); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
}

// must drops the domain-mismatch error of a distance whose arguments the
// caller has given one domain.
func must(d func(p, q Distribution) (float64, error)) func(p, q Distribution) float64 {
	return func(p, q Distribution) float64 {
		v, err := d(p, q)
		if err != nil {
			panic(err)
		}
		return v
	}
}

var emd = must(EarthMovers)

func TestEMDKnownValues(t *testing.T) {
	// Moving all mass by one bucket costs 1.
	p := Distribution{1, 0, 0}
	q := Distribution{0, 1, 0}
	if d, _ := EarthMovers(p, q); !almostEqual(d, 1, 1e-12) {
		t.Errorf("EMD = %v, want 1", d)
	}
	// Endpoint to endpoint on a 5-point scale costs 4.
	p = Distribution{1, 0, 0, 0, 0}
	q = Distribution{0, 0, 0, 0, 1}
	if d, _ := EarthMovers(p, q); !almostEqual(d, 4, 1e-12) {
		t.Errorf("EMD endpoints = %v, want 4", d)
	}
	if d, _ := NormalizedEarthMovers(p, q); !almostEqual(d, 1, 1e-12) {
		t.Errorf("normalized EMD endpoints = %v, want 1", d)
	}
}

func TestEMDRespectsOrdering(t *testing.T) {
	// EMD must grow with displacement distance (TVD cannot tell these
	// apart: ratingmap's TestTotalVariationKnownValues).
	base := Distribution{1, 0, 0, 0, 0}
	near := Distribution{0, 1, 0, 0, 0}
	far := Distribution{0, 0, 0, 0, 1}
	dNear := emd(base, near)
	dFar := emd(base, far)
	if dFar <= dNear {
		t.Errorf("EMD far (%v) should exceed near (%v)", dFar, dNear)
	}
}

func TestEMDMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDistribution(r, 5)
		q := randomDistribution(r, 5)
		w := randomDistribution(r, 5)
		dpq := emd(p, q)
		dqp := emd(q, p)
		dpw := emd(p, w)
		dwq := emd(w, q)
		return almostEqual(dpq, dqp, 1e-9) &&
			dpq >= -1e-12 &&
			emd(p, p) < 1e-12 &&
			dpq <= dpw+dwq+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestKLDivergence(t *testing.T) {
	p := Distribution{0.5, 0.5}
	if d, _ := KLDivergence(p, p); !almostEqual(d, 0, 1e-9) {
		t.Errorf("KL(p,p) = %v, want 0", d)
	}
	q := Distribution{0.9, 0.1}
	d1, _ := KLDivergence(p, q)
	if d1 <= 0 {
		t.Errorf("KL of different distributions should be positive, got %v", d1)
	}
	// Zero target mass must not produce +Inf thanks to smoothing.
	q = Distribution{1, 0}
	d2, _ := KLDivergence(p, q)
	if math.IsInf(d2, 1) || math.IsNaN(d2) {
		t.Errorf("smoothed KL should be finite, got %v", d2)
	}
}

func TestKLNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDistribution(r, 6)
		q := randomDistribution(r, 6)
		d, err := KLDivergence(p, q)
		return err == nil && d >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := Distribution{0.3, 0.7}
	c := d.Clone()
	c[0] = 0.9
	if d[0] != 0.3 {
		t.Error("Clone must not share storage")
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

// StdDev returns the standard deviation of the rating value under d.
func (d Distribution) StdDev() float64 { return math.Sqrt(d.Variance()) }

// Clone returns an independent copy of d.
func (d Distribution) Clone() Distribution {
	c := make(Distribution, len(d))
	copy(c, d)
	return c
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
