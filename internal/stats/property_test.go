package stats

import (
	"math"
	"math/rand"
	"testing"
)

// randDist draws a random valid distribution of the given support size;
// occasionally degenerate (a point mass) to exercise boundary shapes.
func randDist(rng *rand.Rand, n int) Distribution {
	counts := make([]int, n)
	if rng.Intn(8) == 0 {
		counts[rng.Intn(n)] = 1 + rng.Intn(50)
	} else {
		for i := range counts {
			counts[i] = rng.Intn(20)
		}
		counts[rng.Intn(n)]++ // never all-zero
	}
	return NewDistributionFromCounts(counts)
}

// TestPropertyCIShrinksMonotonically: the Hoeffding-Serfling half-width
// must shrink monotonically as the scan consumes more of the population,
// and collapse exactly to 0 when the sample exhausts it — the property
// that makes late-phase pruning decisive.
func TestPropertyCIShrinksMonotonically(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(100_000)
		delta := []float64{0.01, 0.05, 0.1, 0.25}[rng.Intn(4)]
		prev := math.Inf(1)
		// Walk m over an increasing random sample of [1, n].
		m := 0
		for m < n {
			m += 1 + rng.Intn(n/10+1)
			if m > n {
				m = n
			}
			r := HoeffdingSerflingRadius(m, n, delta)
			if r < 0 || math.IsNaN(r) {
				t.Fatalf("radius(m=%d,n=%d,δ=%g) = %g", m, n, delta, r)
			}
			if r > prev+1e-12 {
				t.Fatalf("radius grew: m=%d n=%d δ=%g: %g > %g", m, n, delta, r, prev)
			}
			prev = r
		}
		if r := HoeffdingSerflingRadius(n, n, delta); r != 0 {
			t.Fatalf("exhausted population must have radius 0, got %g", r)
		}
		// Tighter confidence (larger delta) must not widen the interval.
		m = 1 + rng.Intn(n)
		if HoeffdingSerflingRadius(m, n, 0.25) > HoeffdingSerflingRadius(m, n, 0.01)+1e-12 {
			t.Fatalf("radius not monotone in delta at m=%d n=%d", m, n)
		}
	}
}

// TestPropertyDistanceMetricAxioms: EMD on random histograms must satisfy
// the metric axioms — non-negativity, identity of indiscernibles,
// symmetry, and the triangle inequality — plus its tight range bounds
// (normalized EMD in [0,1]; raw EMD at most n−1 on n buckets). TVD's are
// ratingmap's TestTVDMetricProperties.
func TestPropertyDistanceMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type metric struct {
		name string
		fn   func(p, q Distribution) float64
		max  func(n int) float64 // tight upper bound on an n-bucket domain
	}
	metrics := []metric{
		{"EMD", must(EarthMovers), func(n int) float64 { return float64(n - 1) }},
		{"nEMD", must(NormalizedEarthMovers), func(int) float64 { return 1 }},
	}
	const eps = 1e-12
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(9)
		p, q, r := randDist(rng, n), randDist(rng, n), randDist(rng, n)
		for _, m := range metrics {
			dpq, dqp := m.fn(p, q), m.fn(q, p)
			if dpq < 0 || dpq > m.max(n)+eps || math.IsNaN(dpq) {
				t.Fatalf("%s out of range: %g", m.name, dpq)
			}
			if math.Abs(dpq-dqp) > eps {
				t.Fatalf("%s asymmetric: d(p,q)=%g d(q,p)=%g", m.name, dpq, dqp)
			}
			if d := m.fn(p, p); d > eps {
				t.Fatalf("%s identity violated: d(p,p)=%g", m.name, d)
			}
			if dpq+m.fn(q, r)+eps < m.fn(p, r) {
				t.Fatalf("%s triangle inequality violated: d(p,r)=%g > d(p,q)+d(q,r)=%g",
					m.name, m.fn(p, r), dpq+m.fn(q, r))
			}
		}
		// KL: non-negative, zero iff p == q (checked on identical inputs).
		kl, err := KLDivergence(p, p)
		if err != nil || math.Abs(kl) > eps {
			t.Fatalf("KL(p,p) = %g, %v", kl, err)
		}
		if kl, err := KLDivergence(p, q); err == nil && kl < -eps {
			t.Fatalf("KL negative: %g", kl)
		}
	}
}
