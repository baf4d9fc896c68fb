package stats

import (
	"math"
	"sort"
)

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
