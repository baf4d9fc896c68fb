package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		var run Running
		for i := range xs {
			xs[i] = r.NormFloat64()*3 + 1
			run.Add(xs[i])
		}
		return run.N() == n &&
			almostEqual(run.Mean(), Mean(xs), 1e-9) &&
			almostEqual(run.StdDev(), StdDev(xs), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRunningMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a, b, all Running
		for i := 0; i < 50; i++ {
			x := r.Float64() * 10
			all.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.N() == all.N() &&
			almostEqual(a.Mean(), all.Mean(), 1e-9) &&
			almostEqual(a.Variance(), all.Variance(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Add(3)
	a.Merge(b) // merging empty is a no-op
	if a.N() != 2 || !almostEqual(a.Mean(), 2, 1e-12) {
		t.Errorf("merge with empty changed state: n=%d mean=%v", a.N(), a.Mean())
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 2 || !almostEqual(b.Mean(), 2, 1e-12) {
		t.Errorf("merge into empty: n=%d mean=%v", b.N(), b.Mean())
	}
}

func TestRunningAddN(t *testing.T) {
	var a, b Running
	for i := 0; i < 5; i++ {
		a.Add(2.5)
	}
	b.AddN(2.5, 5)
	if a.N() != b.N() || !almostEqual(a.Mean(), b.Mean(), 1e-12) {
		t.Error("AddN must match repeated Add")
	}
}

func TestMinMaxNormalize(t *testing.T) {
	xs := []float64{2, 4, 6}
	MinMaxNormalize(xs)
	want := []float64{0, 0.5, 1}
	for i := range xs {
		if !almostEqual(xs[i], want[i], 1e-12) {
			t.Errorf("normalized[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	// Constant input maps to 0.5 per [51]'s convention.
	cs := []float64{3, 3, 3}
	MinMaxNormalize(cs)
	for _, v := range cs {
		if v != 0.5 {
			t.Errorf("constant input should normalize to 0.5, got %v", v)
		}
	}
}

func TestMinMaxNormalizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+r.Intn(30))
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		MinMaxNormalize(xs)
		for _, v := range xs {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestMinMaxEmpty(t *testing.T) {
	lo, hi := MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Errorf("MinMax(nil) = %v,%v", lo, hi)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("Mean/StdDev of empty must be 0")
	}
}

func TestSpearmanRho(t *testing.T) {
	// Perfect monotone relationship.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	if got := SpearmanRho(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect positive rho = %v", got)
	}
	// Perfect inverse.
	rev := []float64{50, 40, 30, 20, 10}
	if got := SpearmanRho(xs, rev); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect negative rho = %v", got)
	}
	// Nonlinear but monotone: still 1 (rank-based).
	exp := []float64{1, 4, 9, 16, 25}
	if got := SpearmanRho(xs, exp); !almostEqual(got, 1, 1e-12) {
		t.Errorf("monotone nonlinear rho = %v", got)
	}
	// Degenerate inputs.
	if SpearmanRho(nil, nil) != 0 || SpearmanRho([]float64{1}, []float64{2}) != 0 {
		t.Error("degenerate inputs must give 0")
	}
	if SpearmanRho([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("zero variance must give 0")
	}
	// Ties get average ranks; correlation stays within [-1, 1].
	tied := []float64{1, 1, 2, 2, 3}
	if got := SpearmanRho(tied, ys); got < 0.8 || got > 1 {
		t.Errorf("tied rho = %v", got)
	}
}

func TestRanks(t *testing.T) {
	r := ranks([]float64{10, 30, 20, 30})
	// 10 -> 1, 20 -> 2, the two 30s share (3+4)/2 = 3.5.
	want := []float64{1, 3.5, 2, 3.5}
	for i := range want {
		if !almostEqual(r[i], want[i], 1e-12) {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}
