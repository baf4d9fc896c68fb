package experiments

import (
	"cmp"
	"fmt"
	"time"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/gen"
	"subdex/internal/query"
)

// Scheme is one pruning scheme the Figure 10 / 11 sweeps measure, once per
// swept value. The paper's six variants are four schemes read two ways:
// the run's measured time on one goroutine, and the cost model's schedule
// of the same run on simCores cores (see stepCost). OneCore and Cores name
// the paper's variant for each reading; the paper draws no one-core line
// for CI or MAB pruning alone.
type Scheme struct {
	Pruning        engine.Pruning
	OneCore, Cores string
}

// Schemes returns the §5.1 scalability baselines. Their Cores names, then
// their OneCore names, are the paper's six variants in its order.
func Schemes() []Scheme {
	return []Scheme{
		{engine.PruneBoth, "No Parallelism", "SubDEx"},
		{engine.PruneNone, "Naive", "No-Pruning"},
		{engine.PruneCI, "", "CI Pruning"},
		{engine.PruneMAB, "", "MAB Pruning"},
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
// 0.81–1.14× at two cores (EXPERIMENTS.md "PR 26").
type stepTime struct{ sequential, simulated time.Duration }

// runPath executes scalabilitySteps steps of a Fully-Automated session
// under a pruning scheme — each step rating-map generation, then the
// recommendation pass — and returns the average step's times.
func runPath(db *dataset.DB, pruning engine.Pruning, cfg core.Config) (stepTime, error) {
	cfg.Engine.Pruning = pruning
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		return stepTime{}, err
	}
	sess, err := core.NewSession(ex, core.FullyAutomated, query.Description{})
	if err != nil {
		return stepTime{}, err
	}
	var total stepTime
	n := 0
	for n < scalabilitySteps {
		start := time.Now()
		res, err := sess.Step()
		if err != nil {
			return stepTime{}, err
		}
		sequential := time.Since(start)
		var sum, longest time.Duration
		for _, d := range res.RecOpDurations {
			sum += d
			longest = max(longest, d)
		}
		total.sequential += sequential
		total.simulated += sequential + max(longest, sum/simCores) - sum
		n++
		if len(res.Recommendations) == 0 {
			break
		}
		if err := sess.ApplyRecommendation(0); err != nil {
			return stepTime{}, err
		}
	}
	return stepTime{total.sequential / time.Duration(n), total.simulated / time.Duration(n)}, nil
}

// scalabilitySteps keeps the sweeps affordable; the paper averages across
// the whole 7-step path.
const scalabilitySteps = 2

// sweepCandidateCap bounds the per-step candidate-operation pool during
// timing sweeps so a full figure completes in seconds; all schemes share
// the cap, so relative shapes are unaffected.
const sweepCandidateCap = 120

// sweepConfig is the shared configuration of the timing sweeps.
func sweepConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Limits.MaxCandidates = sweepCandidateCap
	cfg.RecSampleSize = 1000
	return cfg
}

// sweep returns one Figure 10 / 11 table: every scheme runs the path on
// Yelp with planted irregular groups (scenario I, as in §5.3) at each
// swept value. Value i runs on derive(full, i) and under sweepConfig with
// tune(i, …) applied; a nil derive keeps the full database, a nil tune the
// config. A row carries the average step's measured one-core time and,
// under simulatedHeading, the cost model's schedule of the same run.
func sweep(p Params, title, xlabel string, labels []string,
	derive func(full *dataset.DB, i int) (*dataset.DB, error), tune func(i int, c *core.Config)) ([]Table, error) {
	full, err := gen.Yelp(gen.Config{Seed: p.Seed, Scale: p.Scale})
	if err != nil {
		return nil, err
	}
	if _, err := gen.PlantIrregularGroups(full, p.Seed+11, 1, 5); err != nil {
		return nil, err
	}
	dbs := make([]*dataset.DB, len(labels))
	for i := range dbs {
		dbs[i] = full
		if derive != nil {
			if dbs[i], err = derive(full, i); err != nil {
				return nil, err
			}
		}
	}
	t := Table{
		Title:  title + ", ms per step",
		Header: []string{"pruning (paper variant: 1 core / 8 cores)", xlabel, "measured, 1 core", simulatedHeading},
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
	for _, s := range Schemes() {
		label := fmt.Sprintf("%s (%s / %s)", s.Pruning, cmp.Or(s.OneCore, "—"), s.Cores)
		for i, l := range labels {
			cfg := sweepConfig()
			if tune != nil {
				tune(i, &cfg)
			}
			avg, err := runPath(dbs[i], s.Pruning, cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{label, l, ms(avg.sequential), ms(avg.simulated)})
		}
	}
	return []Table{t}, nil
}

// fractionSweep is a Figure 10 sweep over 20–100% of the database, as
// reduced by sample.
func fractionSweep(p Params, title, xlabel string, sample func(*dataset.DB, float64, int64) (*dataset.DB, error), seed int64) ([]Table, error) {
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	return sweep(p, title, xlabel, []string{"20%", "40%", "60%", "80%", "100%"}, func(full *dataset.DB, i int) (*dataset.DB, error) {
		if fractions[i] == 1.0 {
			return full, nil
		}
		return sample(full, fractions[i], seed)
	}, nil)
}

// labelled renders swept integer values as column labels.
func labelled(prefix string, values []int) []string {
	labels := make([]string, len(values))
	for i, v := range values {
		labels[i] = prefix + fmt.Sprint(v)
	}
	return labels
}

// Fig10a sweeps the database size by sampling reviewers.
func Fig10a(p Params) ([]Table, error) {
	return fractionSweep(p, "Figure 10(a): avg step time vs database size (Yelp)", "size", dataset.SampleReviewers, p.Seed+31)
}

// Fig10b sweeps the number of attributes.
func Fig10b(p Params) ([]Table, error) {
	counts := []int{4, 8, 12, 16, 20, 24}
	return sweep(p, "Figure 10(b): avg step time vs #attributes (Yelp)", "#attrs", labelled("", counts),
		func(full *dataset.DB, i int) (*dataset.DB, error) {
			return dataset.KeepAttributes(full, counts[i], p.Seed+32)
		}, nil)
}

// Fig10c sweeps the number of attribute values.
func Fig10c(p Params) ([]Table, error) {
	return fractionSweep(p, "Figure 10(c): avg step time vs #attribute-values (Yelp)", "values", dataset.SampleAttributeValues, p.Seed+33)
}

// Fig11a sweeps k, the number of displayed rating maps.
func Fig11a(p Params) ([]Table, error) {
	ks := []int{1, 3, 5, 7, 10}
	return sweep(p, "Figure 11(a): avg step time vs #rating maps k (Yelp)", "k", labelled("k=", ks), nil,
		func(i int, c *core.Config) { c.K = ks[i] })
}

// Fig11b sweeps o, the number of recommendations. The builder's evaluated
// candidate pool is proportional to the number of requested
// recommendations (the paper's per-map builder produces top-o operations
// per rating map), which is what makes the one-core time grow with o.
func Fig11b(p Params) ([]Table, error) {
	os := []int{1, 3, 5, 7, 10}
	return sweep(p, "Figure 11(b): avg step time vs #recommendations o (Yelp)", "o", labelled("o=", os), nil,
		func(i int, c *core.Config) {
			c.O = os[i]
			c.Limits.MaxCandidates = 40 * os[i]
		})
}

// Fig11c sweeps l, the pruning-diversity factor.
func Fig11c(p Params) ([]Table, error) {
	ls := []int{1, 2, 3, 4, 5, 6}
	return sweep(p, "Figure 11(c): avg step time vs pruning-diversity factor l (Yelp)", "l", labelled("l=", ls), nil,
		func(i int, c *core.Config) { c.L = ls[i] })
}
