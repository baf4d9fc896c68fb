package gen

import (
	"fmt"
	"math/rand"

	"subdex/internal/dataset"
)

// Demo generates the small café-review database used by the interactive
// demo, the load harness's smoke workload, and the golden-trace regression
// suite: ~400 reviewers, 24 cafés, ~3,000 rating records on 2 rating
// dimensions (overall, value). It is deliberately tiny — every exploration
// step costs well under a millisecond — so closed-loop simulated-user
// populations (internal/workload, cmd/sdeload) can run thousands of steps
// in a CI smoke job, while the schema still exercises both entity sides,
// a multi-valued attribute, and multi-dimensional ratings.
func Demo(cfg Config) (*dataset.DB, error) {
	rng := rand.New(rand.NewSource(cfg.seed() + 300))
	s := cfg.scale()

	nU := scaleN(400, s, 40)
	nI := scaleN(24, s, 8)
	nR := scaleN(3_000, s, 300)

	reviewerSchema := dataset.MustSchema(
		dataset.Attribute{Name: "age_group"},
		dataset.Attribute{Name: "occupation"},
		dataset.Attribute{Name: "visit_time"},
	)
	itemSchema := dataset.MustSchema(
		dataset.Attribute{Name: "roast", Kind: dataset.MultiValued},
		dataset.Attribute{Name: "district"},
		dataset.Attribute{Name: "price_range"},
	)

	ageGroups := []string{"young", "adult", "senior"}
	occupations := []string{"student", "programmer", "teacher", "retired", "other"}
	visitTimes := []string{"morning", "afternoon", "evening"}

	roasts := []string{"light", "medium", "dark", "decaf"}
	districts := []string{"old_town", "harbor", "campus", "uptown"}
	priceRanges := []string{"$", "$$", "$$$"}

	reviewers := dataset.NewEntityTable("reviewers", reviewerSchema)
	for u := 0; u < nU; u++ {
		if _, err := reviewers.AppendRow(fmt.Sprintf("u%d", u+1), map[string]string{
			"age_group":  pickWeighted(rng, ageGroups, []float64{0.4, 0.45, 0.15}),
			"occupation": pick(rng, occupations),
			"visit_time": pickWeighted(rng, visitTimes, []float64{0.45, 0.3, 0.25}),
		}, nil); err != nil {
			return nil, err
		}
	}

	items := dataset.NewEntityTable("items", itemSchema)
	for i := 0; i < nI; i++ {
		nRoast := 1 + rng.Intn(2)
		rs := make([]string, 0, nRoast)
		seen := map[string]bool{}
		for len(rs) < nRoast {
			r := pick(rng, roasts)
			if !seen[r] {
				seen[r] = true
				rs = append(rs, r)
			}
		}
		if _, err := items.AppendRow(fmt.Sprintf("c%d", i+1), map[string]string{
			"district":    pick(rng, districts),
			"price_range": pickWeighted(rng, priceRanges, []float64{0.35, 0.45, 0.2}),
		}, map[string][]string{"roast": rs}); err != nil {
			return nil, err
		}
	}

	ratings, err := dataset.NewRatingTable(
		dataset.Dimension{Name: "overall", Scale: 5},
		dataset.Dimension{Name: "value", Scale: 5},
	)
	if err != nil {
		return nil, err
	}
	bias := newBiasModel(rand.New(rand.NewSource(cfg.seed()+37)), 0.6)
	cfg.apply(bias)
	if err := fillRatings(rng, bias, reviewers, items, ratings, nR, 1); err != nil {
		return nil, err
	}

	db := dataset.NewDB("Demo", reviewers, items, ratings)
	if err := db.Freeze(); err != nil {
		return nil, err
	}
	return db, nil
}
