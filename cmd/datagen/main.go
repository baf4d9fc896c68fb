// Command datagen generates the synthetic subjective databases used by this
// reproduction (Movielens-, Yelp-, and Hotel-Reviews-shaped; see Table 2 and
// the substitution notes in DESIGN.md) and writes them as CSV directories
// loadable by the subdex library and CLI.
//
//	datagen -dataset yelp -scale 0.1 -out ./data/yelp
//	datagen -dataset movielens -plant-irregular 2 -out ./data/ml
package main

import (
	"flag"
	"fmt"
	"os"

	"subdex/internal/dataset"
	"subdex/internal/gen"
)

func main() {
	var (
		ds        = flag.String("dataset", "yelp", "dataset to generate: demo | movielens | yelp | hotels")
		scale     = flag.Float64("scale", 1.0, "scale factor (1.0 = paper size, Table 2)")
		seed      = flag.Int64("seed", 1, "generation seed")
		out       = flag.String("out", "", "output directory (required)")
		irregular = flag.Int("plant-irregular", 0, "plant N irregular groups per side (Scenario I)")
		insights  = flag.Bool("plant-insights", false, "plant the Scenario II insight set")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "datagen: -out is required")
		os.Exit(2)
	}

	cfg := gen.Config{Seed: *seed, Scale: *scale}
	var ins []gen.Insight
	if *insights {
		switch *ds {
		case "movielens":
			ins = gen.MovielensInsights()
		case "yelp":
			ins = gen.YelpInsights()
		default:
			fmt.Fprintf(os.Stderr, "datagen: no insight set defined for %q\n", *ds)
			os.Exit(2)
		}
		cfg.ForcedBiases = gen.InsightBiases(ins)
	}

	db, err := gen.ByName(*ds, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}

	if *irregular > 0 {
		groups, err := gen.PlantIrregularGroups(db, *seed+11, *irregular, 5)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		fmt.Println("planted irregular groups (ground truth):")
		for _, g := range groups {
			fmt.Println(" ", g)
		}
	}
	for _, in := range ins {
		ok, err := gen.VerifyInsight(db, in, 10)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		fmt.Printf("insight %s holds in generated data: %v\n", in.ID, ok)
	}

	if err := dataset.SaveDir(db, *out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	s := db.Stats()
	fmt.Printf("wrote %s: %d reviewers, %d items, %d ratings, %d dimensions -> %s\n",
		s.Name, s.NumReviewers, s.NumItems, s.NumRatings, s.NumDimensions, *out)
}
