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

func TestTotalVariationKnownValues(t *testing.T) {
	p := Distribution{1, 0}
	q := Distribution{0, 1}
	if d, _ := TotalVariation(p, q); !almostEqual(d, 1, 1e-12) {
		t.Errorf("TVD of disjoint = %v, want 1", d)
	}
	if d, _ := TotalVariation(p, p); !almostEqual(d, 0, 1e-12) {
		t.Errorf("TVD of identical = %v, want 0", d)
	}
}

func TestTotalVariationMismatch(t *testing.T) {
	if _, err := TotalVariation(Distribution{1}, Distribution{0.5, 0.5}); err == nil {
		t.Fatal("expected error for mismatched domains")
	}
}

func TestTVDMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDistribution(r, 5)
		q := randomDistribution(r, 5)
		w := randomDistribution(r, 5)
		dpq := MustTotalVariation(p, q)
		dqp := MustTotalVariation(q, p)
		dpw := MustTotalVariation(p, w)
		dwq := MustTotalVariation(w, q)
		// symmetry, range, identity, triangle inequality
		return almostEqual(dpq, dqp, 1e-12) &&
			dpq >= 0 && dpq <= 1+1e-12 &&
			MustTotalVariation(p, p) < 1e-12 &&
			dpq <= dpw+dwq+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

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
	// EMD must grow with displacement distance; TVD cannot tell these apart.
	base := Distribution{1, 0, 0, 0, 0}
	near := Distribution{0, 1, 0, 0, 0}
	far := Distribution{0, 0, 0, 0, 1}
	dNear := MustEarthMovers(base, near)
	dFar := MustEarthMovers(base, far)
	if dFar <= dNear {
		t.Errorf("EMD far (%v) should exceed near (%v)", dFar, dNear)
	}
	tvdNear := MustTotalVariation(base, near)
	tvdFar := MustTotalVariation(base, far)
	if !almostEqual(tvdNear, tvdFar, 1e-12) {
		t.Errorf("TVD should not distinguish displacement: %v vs %v", tvdNear, tvdFar)
	}
}

func TestEMDMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomDistribution(r, 5)
		q := randomDistribution(r, 5)
		w := randomDistribution(r, 5)
		dpq := MustEarthMovers(p, q)
		dqp := MustEarthMovers(q, p)
		dpw := MustEarthMovers(p, w)
		dwq := MustEarthMovers(w, q)
		return almostEqual(dpq, dqp, 1e-9) &&
			dpq >= -1e-12 &&
			MustEarthMovers(p, p) < 1e-12 &&
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
