package subdex_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), each delegating to the corresponding experiment in
// internal/experiments at a bench-friendly scale, plus micro-benchmarks of
// the load-bearing primitives (group materialization, top-map generation
// under each pruning scheme, GMM selection, recommendation building).
//
// Regenerate the actual paper artifacts with `go run ./cmd/sdebench -run
// all -scale 0.2`; these benches exist so `go test -bench=.` exercises
// every experiment code path and tracks their cost over time.

import (
	"io"
	"sync"
	"testing"

	"subdex"
	"subdex/internal/core"
	"subdex/internal/diversity"
	"subdex/internal/engine"
	"subdex/internal/experiments"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
	"subdex/internal/sentiment"
)

// benchParams is the shared experiment scale for table/figure benches:
// large enough to exercise the pruning machinery, small enough for -bench.
func benchParams() experiments.Params {
	return experiments.Params{Scale: 0.02, Seed: 1, Subjects: 3, Out: io.Discard}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkTable2DatasetGeneration(b *testing.B)       { runExperiment(b, "table2") }
func BenchmarkFig7GuidanceStudy(b *testing.B)             { runExperiment(b, "fig7") }
func BenchmarkFig8RecallVsSteps(b *testing.B)             { runExperiment(b, "fig8") }
func BenchmarkTable4RecommendationQuality(b *testing.B)   { runExperiment(b, "table4") }
func BenchmarkTable5UtilityDiversity(b *testing.B)        { runExperiment(b, "table5") }
func BenchmarkTable6UtilityVsDiversityPaths(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkFig9DimensionWeights(b *testing.B)          { runExperiment(b, "fig9") }
func BenchmarkAblationUtilityCriteria(b *testing.B)       { runExperiment(b, "ablation") }
func BenchmarkFig10aDatabaseSize(b *testing.B)            { runExperiment(b, "fig10a") }
func BenchmarkFig10bNumAttributes(b *testing.B)           { runExperiment(b, "fig10b") }
func BenchmarkFig10cNumValues(b *testing.B)               { runExperiment(b, "fig10c") }
func BenchmarkFig11aNumRatingMaps(b *testing.B)           { runExperiment(b, "fig11a") }
func BenchmarkFig11bNumRecommendations(b *testing.B)      { runExperiment(b, "fig11b") }
func BenchmarkFig11cPruningDiversityFactor(b *testing.B)  { runExperiment(b, "fig11c") }

// --- Micro-benchmarks of the primitives ---------------------------------

var (
	benchDBOnce sync.Once
	benchDB     *subdex.DB
)

func sharedDB(b *testing.B) *subdex.DB {
	benchDBOnce.Do(func() {
		db, err := gen.Yelp(gen.Config{Seed: 1, Scale: 0.1})
		if err != nil {
			panic(err)
		}
		benchDB = db
	})
	return benchDB
}

func BenchmarkMaterializeRoot(b *testing.B) {
	db := sharedDB(b)
	qe, err := query.NewEngine(db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qe.Materialize(query.Description{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterializeSelective(b *testing.B) {
	db := sharedDB(b)
	qe, err := query.NewEngine(db)
	if err != nil {
		b.Fatal(err)
	}
	d := query.MustDescription(
		query.Selector{Side: query.ReviewerSide, Attr: "age_group", Value: "young"},
		query.Selector{Side: query.ItemSide, Attr: "price_range", Value: "$$"},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qe.Materialize(d); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTopMaps(b *testing.B, pruning engine.Pruning) {
	db := sharedDB(b)
	qe, _ := query.NewEngine(db)
	group, _ := qe.Materialize(query.Description{})
	g := engine.NewGenerator(db)
	cands := g.Candidates(qe, query.Description{})
	seen := ratingmap.NewSeenSet()
	cfg := engine.DefaultConfig()
	cfg.Pruning = pruning
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopMaps(group, cands, seen, 9, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopMapsNoPruning(b *testing.B) { benchTopMaps(b, engine.PruneNone) }
func BenchmarkTopMapsCI(b *testing.B)        { benchTopMaps(b, engine.PruneCI) }
func BenchmarkTopMapsMAB(b *testing.B)       { benchTopMaps(b, engine.PruneMAB) }
func BenchmarkTopMapsBoth(b *testing.B)      { benchTopMaps(b, engine.PruneBoth) }

func BenchmarkRMSetSelection(b *testing.B) {
	db := sharedDB(b)
	ex, err := core.NewExplorer(db, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	seen := ratingmap.NewSeenSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.RMSet(query.Description{}, seen); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGMMSelection(b *testing.B) {
	db := sharedDB(b)
	qe, _ := query.NewEngine(db)
	group, _ := qe.Materialize(query.Description{})
	g := engine.NewGenerator(db)
	cands := g.Candidates(qe, query.Description{})
	res, err := g.TopMaps(group, cands, ratingmap.NewSeenSet(), 30, engine.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diversity.SelectDiverse(res.Maps, 3, diversity.EMDWithAttribute)
	}
}

func BenchmarkRecommendationBuilding(b *testing.B) {
	db := sharedDB(b)
	cfg := core.DefaultConfig()
	cfg.Limits.MaxCandidates = 40
	cfg.RecSampleSize = 500
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	seen := ratingmap.NewSeenSet()
	res, err := ex.RMSet(query.Description{}, seen)
	if err != nil {
		b.Fatal(err)
	}
	rb := core.RecommendationBuilder{Ex: ex}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rb.Recommend(query.Description{}, res.Maps, seen, 3); err != nil {
			b.Fatal(err)
		}
	}
}

var benchScores ratingmap.Scores

func BenchmarkCriteriaEstimate(b *testing.B) {
	db := sharedDB(b)
	qe, _ := query.NewEngine(db)
	group, _ := qe.Materialize(query.Description{})
	builder := ratingmap.Builder{DB: db}
	keys := engine.NewGenerator(db).Candidates(qe, query.Description{})
	acc := builder.NewAccumulator(query.Description{}, keys)
	acc.Update(group.Records)
	seen := ratingmap.NewSeenSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range keys {
			benchScores = acc.ScoresAt(k, seen, 1, ratingmap.PecTVD, nil)
		}
	}
}

func BenchmarkSentimentExtraction(b *testing.B) {
	corpus := gen.GenerateReviews(3, 200, []string{"food", "service", "ambiance"})
	ext := sentiment.Extractor{Keywords: sentiment.DefaultRestaurantKeywords()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range corpus.Texts {
			ext.Scores(text, 5)
		}
	}
}
