package stats

import (
	"math"
	"testing"
)

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestMomentsEmpty(t *testing.T) {
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
