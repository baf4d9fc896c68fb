package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHoeffdingSerflingRadius(t *testing.T) {
	// Radius shrinks as more of the population is processed.
	n := 10000
	prev := math.Inf(1)
	for _, m := range []int{100, 1000, 5000, 9000, 9999} {
		r := HoeffdingSerflingRadius(m, n, 0.05)
		if r >= prev {
			t.Errorf("radius should shrink: m=%d r=%v prev=%v", m, r, prev)
		}
		if r < 0 {
			t.Errorf("radius negative at m=%d: %v", m, r)
		}
		prev = r
	}
	// Exhausted population: exact mean.
	if r := HoeffdingSerflingRadius(n, n, 0.05); r != 0 {
		t.Errorf("full population radius = %v, want 0", r)
	}
	// No samples: unbounded.
	if r := HoeffdingSerflingRadius(0, n, 0.05); !math.IsInf(r, 1) {
		t.Errorf("zero samples radius = %v, want +Inf", r)
	}
}

func TestHoeffdingSerflingCoverage(t *testing.T) {
	// Empirical check: the worst-case interval must cover the true mean in
	// (much) more than 1-delta of trials for bounded populations.
	rng := rand.New(rand.NewSource(42))
	const n = 2000
	pop := make([]float64, n)
	trueMean := 0.0
	for i := range pop {
		pop[i] = rng.Float64()
		trueMean += pop[i]
	}
	trueMean /= n

	const trials = 300
	const m = 200
	const delta = 0.1
	covered := 0
	for trial := 0; trial < trials; trial++ {
		perm := rng.Perm(n)
		sum := 0.0
		for i := 0; i < m; i++ {
			sum += pop[perm[i]]
		}
		if math.Abs(sum/m-trueMean) <= HoeffdingSerflingRadius(m, n, delta) {
			covered++
		}
	}
	if frac := float64(covered) / trials; frac < 1-delta {
		t.Errorf("coverage %.3f below 1-delta = %.2f", frac, 1-delta)
	}
}

func TestOneWayANOVAIdenticalGroups(t *testing.T) {
	g := []float64{1, 2, 3, 4, 5}
	res := OneWayANOVA([][]float64{g, g, g})
	if res.Significant(0.05) {
		t.Errorf("identical groups must not be significant: %+v", res)
	}
}

func TestOneWayANOVADifferentGroups(t *testing.T) {
	a := []float64{1, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02}
	b := []float64{5, 5.1, 4.9, 5.05, 4.95, 5.0, 5.02}
	res := OneWayANOVA([][]float64{a, b})
	if !res.Significant(0.01) {
		t.Errorf("clearly different groups must be significant: %+v", res)
	}
	if res.F <= 1 {
		t.Errorf("F should be large, got %v", res.F)
	}
}

func TestOneWayANOVAKnownValue(t *testing.T) {
	// Classic example with a hand-computable F statistic.
	a := []float64{6, 8, 4, 5, 3, 4}
	b := []float64{8, 12, 9, 11, 6, 8}
	c := []float64{13, 9, 11, 8, 7, 12}
	res := OneWayANOVA([][]float64{a, b, c})
	// Grand mean 8; SSB = 84, SSW = 68; F = (84/2)/(68/15) = 9.264...
	if !almostEqual(res.F, 9.264705882, 1e-6) {
		t.Errorf("F = %v, want 9.2647", res.F)
	}
	if res.DFBetwen != 2 || res.DFWithin != 15 {
		t.Errorf("df = (%d,%d), want (2,15)", res.DFBetwen, res.DFWithin)
	}
	// p ≈ 0.0024 for F(2,15) = 9.26.
	if res.P < 0.001 || res.P > 0.005 {
		t.Errorf("p = %v, want ≈ 0.0024", res.P)
	}
}

func TestOneWayANOVADegenerate(t *testing.T) {
	if res := OneWayANOVA(nil); res.P != 1 {
		t.Errorf("nil groups: p = %v, want 1", res.P)
	}
	if res := OneWayANOVA([][]float64{{1, 2, 3}}); res.P != 1 {
		t.Errorf("single group: p = %v, want 1", res.P)
	}
	// Zero within-group variance but different means: infinitely significant.
	res := OneWayANOVA([][]float64{{1, 1}, {2, 2}})
	if res.P != 0 {
		t.Errorf("separated constant groups: p = %v, want 0", res.P)
	}
	// All constant and equal.
	res = OneWayANOVA([][]float64{{1, 1}, {1, 1}})
	if res.P != 1 {
		t.Errorf("identical constant groups: p = %v, want 1", res.P)
	}
}

func TestRegularizedIncompleteBeta(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		if got := RegularizedIncompleteBeta(1, 1, x); !almostEqual(got, x, 1e-9) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := 0.5 + 5*r.Float64()
		b := 0.5 + 5*r.Float64()
		x := r.Float64()
		return almostEqual(RegularizedIncompleteBeta(a, b, x), 1-RegularizedIncompleteBeta(b, a, 1-x), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestFDistSF(t *testing.T) {
	if got := FDistSF(0, 3, 10); got != 1 {
		t.Errorf("P(F>0) = %v, want 1", got)
	}
	// Monotone decreasing in f.
	prev := 1.0
	for _, f := range []float64{0.5, 1, 2, 4, 8} {
		p := FDistSF(f, 3, 10)
		if p > prev {
			t.Errorf("survival function must decrease: f=%v p=%v prev=%v", f, p, prev)
		}
		prev = p
	}
	// Known quantile: P(F(1,10) > 4.96) ≈ 0.05.
	if p := FDistSF(4.96, 1, 10); math.Abs(p-0.05) > 0.005 {
		t.Errorf("P(F(1,10)>4.96) = %v, want ≈ 0.05", p)
	}
}
