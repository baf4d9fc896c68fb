package stats

import "math"

// HoeffdingSerflingRadius returns the half-width of a (1−delta) worst-case
// confidence interval for the mean of m samples drawn without replacement
// from a finite population of size n whose values lie in [0,1]. This is the
// bound of Serfling [48] used by SeeDB [54] and adopted by SubDEx: after
// processing m of n records,
//
//	radius = sqrt( (1 − (m−1)/n) · (2·ln(1/delta)) / (2m) )
//
// The (1 − (m−1)/n) factor is the without-replacement correction that drives
// the radius to 0 as the sample exhausts the population, which is what makes
// late-phase pruning decisive.
func HoeffdingSerflingRadius(m, n int, delta float64) float64 {
	if m <= 0 || n <= 0 {
		return math.Inf(1)
	}
	if m >= n {
		return 0
	}
	if delta <= 0 || delta >= 1 {
		delta = 0.05
	}
	correction := 1 - float64(m-1)/float64(n)
	return math.Sqrt(correction * 2 * math.Log(1/delta) / (2 * float64(m)))
}

// ANOVAResult carries the outcome of a one-way analysis of variance: the F
// statistic, its degrees of freedom, and an approximate p-value. The paper
// uses one-way ANOVA at p < .05 to verify that treatment subgroups do not
// differ significantly (§5.2.1 footnotes 4-6).
type ANOVAResult struct {
	F        float64
	DFBetwen int
	DFWithin int
	P        float64
}

// OneWayANOVA runs a one-way ANOVA over the given groups of observations.
// Groups with fewer than one observation are ignored; if fewer than two
// non-empty groups remain, or the within-group variance is zero, a degenerate
// result with P = 1 is returned.
func OneWayANOVA(groups [][]float64) ANOVAResult {
	var valid [][]float64
	total := 0
	grand := 0.0
	for _, g := range groups {
		if len(g) > 0 {
			valid = append(valid, g)
			total += len(g)
			for _, x := range g {
				grand += x
			}
		}
	}
	k := len(valid)
	if k < 2 || total <= k {
		return ANOVAResult{P: 1}
	}
	grand /= float64(total)

	ssb, ssw := 0.0, 0.0
	for _, g := range valid {
		m := Mean(g)
		d := m - grand
		ssb += float64(len(g)) * d * d
		for _, x := range g {
			e := x - m
			ssw += e * e
		}
	}
	dfb := k - 1
	dfw := total - k
	if ssw < 1e-12 {
		if ssb < 1e-12 {
			return ANOVAResult{DFBetwen: dfb, DFWithin: dfw, P: 1}
		}
		return ANOVAResult{F: math.Inf(1), DFBetwen: dfb, DFWithin: dfw, P: 0}
	}
	f := (ssb / float64(dfb)) / (ssw / float64(dfw))
	return ANOVAResult{F: f, DFBetwen: dfb, DFWithin: dfw, P: FDistSF(f, dfb, dfw)}
}

// FDistSF returns the survival function P(F > f) of the F distribution with
// (d1, d2) degrees of freedom, computed via the regularized incomplete beta
// function.
func FDistSF(f float64, d1, d2 int) float64 {
	if f <= 0 {
		return 1
	}
	x := float64(d2) / (float64(d2) + float64(d1)*f)
	return RegularizedIncompleteBeta(float64(d2)/2, float64(d1)/2, x)
}

// RegularizedIncompleteBeta computes I_x(a, b) using the continued-fraction
// expansion (Numerical Recipes style), accurate enough for p-value use.
func RegularizedIncompleteBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
