// Package gen builds the synthetic subjective databases this reproduction
// uses in place of the paper's MovieLens-100K, Yelp, and Hotel-Reviews
// datasets (§5.1, Table 2). The generators reproduce the published schema
// statistics — attribute counts, maximum value cardinalities, rating
// dimension counts, and |R|/|U|/|I| — and generate ratings from a latent
// model with per-(attribute,value,dimension) biases, so subgroups genuinely
// differ in their rating distributions the way real populations do.
//
// The package also implements the paper's two evaluation workloads:
// irregular-group planting for Scenario I and insight planting for
// Scenario II, both with ground truth for the simulated user study.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"subdex/internal/dataset"
	"subdex/internal/query"
)

// Config controls generation. The zero value generates paper-sized data
// with seed 1.
type Config struct {
	// Seed drives the deterministic PRNG; 0 means 1.
	Seed int64
	// Scale multiplies entity and record counts; 0 means 1.0 (paper size).
	// Tests use small scales for speed.
	Scale float64
	// ForcedBiases pins latent rating biases before generation; insight
	// planting (Scenario II) uses this to make specific subgroups rate
	// specific dimensions at the extremes.
	ForcedBiases []ForcedBias
}

// ForcedBias pins the latent bias of one (side, attribute, value,
// dimension) combination.
type ForcedBias struct {
	Side  query.Side
	Attr  string
	Value string
	Dim   int
	Bias  float64
}

// ByName runs the generator a -generate / -dataset flag names: demo,
// movielens, yelp or hotels. Every binary resolves dataset names here, so
// they all accept the same set.
func ByName(name string, cfg Config) (*dataset.DB, error) {
	switch name {
	case "demo":
		return Demo(cfg)
	case "movielens":
		return Movielens(cfg)
	case "yelp":
		return Yelp(cfg)
	case "hotels":
		return Hotels(cfg)
	}
	return nil, fmt.Errorf("unknown dataset %q (want demo, movielens, yelp, or hotels)", name)
}

// apply installs the forced biases into a model.
func (c Config) apply(b *biasModel) {
	for _, fb := range c.ForcedBiases {
		b.force(fb.Side, fb.Attr, fb.Value, fb.Dim, fb.Bias)
	}
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// scaleN applies the scale factor with a floor so tiny scales keep the
// schema exercised.
func scaleN(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// biasModel assigns a latent rating bias to every (side, attribute, value,
// dimension) combination. Summed over an entity's attribute values, it
// shifts that entity's scores, producing subgroup-dependent distributions.
type biasModel struct {
	rng    *rand.Rand
	biases map[biasKey]float64
	spread float64
}

// biasKey names one (side, attribute, value, dimension) combination.
type biasKey struct {
	side        query.Side
	attr, value string
	dim         int
}

func newBiasModel(rng *rand.Rand, spread float64) *biasModel {
	return &biasModel{rng: rng, biases: make(map[biasKey]float64), spread: spread}
}

// of returns (memoized) the bias of one attribute value for one dimension.
func (b *biasModel) of(side query.Side, attr, value string, dim int) float64 {
	k := biasKey{side, attr, value, dim}
	if v, ok := b.biases[k]; ok {
		return v
	}
	v := (b.rng.Float64()*2 - 1) * b.spread
	b.biases[k] = v
	return v
}

// force pins a bias (used by insight planting).
func (b *biasModel) force(side query.Side, attr, value string, dim int, bias float64) {
	b.biases[biasKey{side, attr, value, dim}] = bias
}

// entityBias sums the biases of an entity's attribute values for one
// dimension, averaging so wide schemas do not saturate the scale.
func (b *biasModel) entityBias(side query.Side, t *dataset.EntityTable, row, dim int) float64 {
	sum, n := 0.0, 0
	for a := 0; a < t.Schema.Len(); a++ {
		attr := t.Schema.At(a)
		switch attr.Kind {
		case dataset.Atomic:
			v := t.AtomicValue(a, row)
			if v == dataset.MissingValue {
				continue
			}
			sum += b.of(side, attr.Name, t.Dict(a).Value(v), dim)
			n++
		case dataset.MultiValued:
			for _, v := range t.MultiValues(a, row) {
				sum += b.of(side, attr.Name, t.Dict(a).Value(v), dim)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	// Scale up so group effects are visible against noise.
	return 2.2 * sum / float64(n)
}

// score draws one rating on {1..scale} around a center with the summed
// entity biases and Gaussian noise.
func score(rng *rand.Rand, scale int, center float64) dataset.Score {
	v := center + rng.NormFloat64()*0.9
	s := int(math.Round(v))
	if s < 1 {
		s = 1
	}
	if s > scale {
		s = scale
	}
	return dataset.Score(s)
}

// pick chooses one value uniformly.
func pick(rng *rand.Rand, values []string) string {
	return values[rng.Intn(len(values))]
}

// pickWeighted chooses a value with the given relative weights.
func pickWeighted(rng *rand.Rand, values []string, weights []float64) string {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return values[i]
		}
	}
	return values[len(values)-1]
}

// zipfish returns a mildly skewed positive count with the given mean,
// approximating the long-tailed activity distributions of rating datasets.
func zipfish(rng *rand.Rand, mean float64) int {
	// Exponential with the target mean, floored at 1.
	v := int(rng.ExpFloat64() * mean)
	if v < 1 {
		v = 1
	}
	return v
}

// seq generates labels prefix1..prefixN.
func seq(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	return out
}

// years generates consecutive year labels.
func years(from, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d", from+i)
	}
	return out
}
