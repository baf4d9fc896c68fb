package experiments

import (
	"fmt"
	"time"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// Variant is one of the six engine configurations compared in §5.3. The
// repository evaluates a step's candidate operations one after another;
// what a variant's Parallel says is which schedule the cost model lays over
// their measured costs (see stepCost).
type Variant struct {
	Name string
	// Pruning for the RM generator.
	Pruning engine.Pruning
	// Parallel variants are modelled on simCores cores, the others on one.
	Parallel bool
}

// Variants returns the §5.1 scalability baselines in paper order.
func Variants() []Variant {
	return []Variant{
		{"SubDEx", engine.PruneBoth, true},
		{"No-Pruning", engine.PruneNone, true},
		{"CI Pruning", engine.PruneCI, true},
		{"MAB Pruning", engine.PruneMAB, true},
		{"No Parallelism", engine.PruneBoth, false},
		{"Naive", engine.PruneNone, false},
	}
}

// simCores is the core count of the simulated parallel schedule; the paper
// sets the worker count to the number of available cores.
const simCores = 8

// simulatedHeading heads the cost-model column of every Figure 10 / 11
// table, so that no simulated number is read as a measured one.
var simulatedHeading = fmt.Sprintf("simulated, %d cores", simCores)

// stepTime is what one exploration step cost: sequential is its wall-clock
// on this machine, on one goroutine; simulated is the cost model's — the
// same run with the candidates' summed cost replaced by the length of their
// schedule over simCores workers, max(longest candidate, sum / simCores).
// The model is the paper's parallel Recommendation Builder as this
// repository reproduces it (DESIGN.md "Reproduction substitutions"): it
// assumes candidates share nothing and cores are free, which the builder's
// own partitions and gate do not grant it — a worker pool measured
// 0.81–1.14× at two cores (EXPERIMENTS.md "PR 26"). A variant that is not
// Parallel is the model's one-core schedule: its simulated time is its
// sequential time.
type stepTime struct{ sequential, simulated time.Duration }

// stepCost runs one exploration step under the explorer's pruning scheme —
// rating-map generation, then the recommendation pass — and returns both of
// its times.
func stepCost(ex *core.Explorer, desc query.Description, seen *ratingmap.SeenSet,
	v Variant, o int) (stepTime, *core.StepResult, error) {
	start := time.Now()
	res, err := ex.RMSet(desc, seen)
	if err != nil {
		return stepTime{}, nil, err
	}
	for _, rm := range res.Maps {
		seen.Add(rm)
	}
	rb := core.RecommendationBuilder{Ex: ex}
	recs, durs, err := rb.Recommend(desc, res.Maps, seen, o)
	if err != nil {
		return stepTime{}, nil, err
	}
	sequential := time.Since(start)
	res.Recommendations = recs
	simulated := sequential
	if v.Parallel {
		var total, longest time.Duration
		for _, d := range durs {
			total += d
			longest = max(longest, d)
		}
		simulated += max(longest, total/simCores) - total
	}
	return stepTime{sequential, simulated}, res, nil
}

// runPath executes a Fully-Automated path under a variant and returns the
// average step cost.
func runPath(db *dataset.DB, v Variant, cfg core.Config, steps int) (stepTime, error) {
	cfg.Engine.Pruning = v.Pruning
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		return stepTime{}, err
	}
	seen := ratingmap.NewSeenSet()
	var cur query.Description
	var total stepTime
	n := 0
	for s := 0; s < steps; s++ {
		cost, res, err := stepCost(ex, cur, seen, v, cfg.O)
		if err != nil {
			return stepTime{}, err
		}
		total.sequential += cost.sequential
		total.simulated += cost.simulated
		n++
		if len(res.Recommendations) == 0 {
			break
		}
		cur = res.Recommendations[0].Op.Target
	}
	if n == 0 {
		return stepTime{}, nil
	}
	return stepTime{total.sequential / time.Duration(n), total.simulated / time.Duration(n)}, nil
}

// scalabilitySteps keeps the sweeps affordable; the paper averages across
// the whole 7-step path.
const scalabilitySteps = 2

// sweepCandidateCap bounds the per-step candidate-operation pool during
// timing sweeps so a full figure completes in seconds; all variants share
// the cap, so relative shapes are unaffected.
const sweepCandidateCap = 120

// sweepConfig is the shared configuration of the timing sweeps.
func sweepConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Limits.MaxCandidates = sweepCandidateCap
	cfg.RecSampleSize = 1000
	return cfg
}

// yelpForScale generates the Yelp database with planted irregular groups
// (scenario I, as in §5.3).
func yelpForScale(p Params) (*dataset.DB, error) {
	db, err := gen.Yelp(gen.Config{Seed: p.seed(), Scale: p.scale()})
	if err != nil {
		return nil, err
	}
	if _, err := gen.PlantIrregularGroups(db, p.seed()+11, 1, 5); err != nil {
		return nil, err
	}
	return db, nil
}

// sweepTable prints one Figure 10 / 11 table: a row per variant and value
// of the swept quantity, carrying the average step's measured sequential
// time and, under simulatedHeading, the cost model's.
func sweepTable(p Params, title, xlabel string, labels []string, cell func(v Variant, i int) (stepTime, error)) error {
	header(p.Out, title)
	tw := newTab(p.Out)
	fmt.Fprintf(tw, "variant\t%s\tsequential\t%s\n", xlabel, simulatedHeading)
	for _, v := range Variants() {
		for i, l := range labels {
			avg, err := cell(v, i)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", v.Name, l, fmtDur(avg.sequential), fmtDur(avg.simulated))
		}
	}
	return tw.Flush()
}

// sweep runs all variants over a list of labelled databases.
func sweep(p Params, title, xlabel string, labels []string, dbs []*dataset.DB, cfg core.Config) error {
	return sweepTable(p, title, xlabel, labels, func(v Variant, i int) (stepTime, error) {
		return runPath(dbs[i], v, cfg, scalabilitySteps)
	})
}

// Fig10a sweeps the database size by sampling reviewers.
func Fig10a(p Params) error {
	full, err := yelpForScale(p)
	if err != nil {
		return err
	}
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	var labels []string
	var dbs []*dataset.DB
	for _, f := range fractions {
		labels = append(labels, fmt.Sprintf("%d%%", int(f*100)))
		if f == 1.0 {
			dbs = append(dbs, full)
			continue
		}
		db, err := dataset.SampleReviewers(full, f, p.seed()+31)
		if err != nil {
			return err
		}
		dbs = append(dbs, db)
	}
	return sweep(p, "Figure 10(a): avg step time vs database size (Yelp)", "size", labels, dbs, sweepConfig())
}

// Fig10b sweeps the number of attributes.
func Fig10b(p Params) error {
	full, err := yelpForScale(p)
	if err != nil {
		return err
	}
	counts := []int{4, 8, 12, 16, 20, 24}
	var labels []string
	var dbs []*dataset.DB
	for _, c := range counts {
		labels = append(labels, fmt.Sprint(c))
		db, err := dataset.KeepAttributes(full, c, p.seed()+32)
		if err != nil {
			return err
		}
		dbs = append(dbs, db)
	}
	return sweep(p, "Figure 10(b): avg step time vs #attributes (Yelp)", "#attrs", labels, dbs, sweepConfig())
}

// Fig10c sweeps the number of attribute values.
func Fig10c(p Params) error {
	full, err := yelpForScale(p)
	if err != nil {
		return err
	}
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	var labels []string
	var dbs []*dataset.DB
	for _, f := range fractions {
		labels = append(labels, fmt.Sprintf("%d%%", int(f*100)))
		if f == 1.0 {
			dbs = append(dbs, full)
			continue
		}
		db, err := dataset.SampleAttributeValues(full, f, p.seed()+33)
		if err != nil {
			return err
		}
		dbs = append(dbs, db)
	}
	return sweep(p, "Figure 10(c): avg step time vs #attribute-values (Yelp)", "values", labels, dbs, sweepConfig())
}

// paramSweep runs all variants over one database with per-column config
// mutations.
func paramSweep(p Params, title, xlabel string, labels []string, mut func(int, *core.Config)) error {
	db, err := yelpForScale(p)
	if err != nil {
		return err
	}
	return sweepTable(p, title, xlabel, labels, func(v Variant, i int) (stepTime, error) {
		cfg := sweepConfig()
		mut(i, &cfg)
		return runPath(db, v, cfg, scalabilitySteps)
	})
}

// Fig11a sweeps k, the number of displayed rating maps.
func Fig11a(p Params) error {
	ks := []int{1, 3, 5, 7, 10}
	labels := make([]string, len(ks))
	for i, k := range ks {
		labels[i] = fmt.Sprintf("k=%d", k)
	}
	return paramSweep(p, "Figure 11(a): avg step time vs #rating maps k (Yelp)", "k", labels,
		func(i int, c *core.Config) { c.K = ks[i] })
}

// Fig11b sweeps o, the number of recommendations.
func Fig11b(p Params) error {
	os := []int{1, 3, 5, 7, 10}
	labels := make([]string, len(os))
	for i, o := range os {
		labels[i] = fmt.Sprintf("o=%d", o)
	}
	// The builder's evaluated candidate pool is proportional to the number
	// of requested recommendations (the paper's per-map builder produces
	// top-o operations per rating map), which is what makes the sequential
	// variants grow linearly in o.
	return paramSweep(p, "Figure 11(b): avg step time vs #recommendations o (Yelp)", "o", labels,
		func(i int, c *core.Config) {
			c.O = os[i]
			c.Limits.MaxCandidates = 40 * os[i]
		})
}

// Fig11c sweeps l, the pruning-diversity factor.
func Fig11c(p Params) error {
	ls := []int{1, 2, 3, 4, 5, 6}
	labels := make([]string, len(ls))
	for i, l := range ls {
		labels[i] = fmt.Sprintf("l=%d", l)
	}
	return paramSweep(p, "Figure 11(c): avg step time vs pruning-diversity factor l (Yelp)", "l", labels,
		func(i int, c *core.Config) { c.L = ls[i] })
}
