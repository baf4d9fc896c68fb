package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/engine"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// walkShapes are the dataset shapes the pass's differential tests walk: demo
// and the three generated ones, small enough for a reference that evaluates
// every candidate of every step from the entity tables.
var walkShapes = []struct {
	name  string
	build func(gen.Config) (*dataset.DB, error)
	scale float64
}{
	{"demo", gen.Demo, 1},
	{"yelp", gen.Yelp, 0.02},
	{"movielens", gen.Movielens, 0.02},
	{"hotels", gen.Hotels, 0.02},
}

// TestDerivedGroupsMatchMaterialized is the exactness proof of recPass: on
// every dataset shape, at every step of a seeded Recommendation-Powered
// walk, for every operation CandidateOps returns, the derived records equal
// element for element what the candidate is scored on —
// query.Sample(Query.Materialize(op.Target).Records, RecSampleSize), read
// through a bounded partition for a Filter, FilterGeneralize or
// FilterChange, and sampled from the whole group into the pass's buffer for
// a Change or Generalize — and the derived utility equals the materializing reference
// OperationUtility bit for bit; under the shipped RecSampleSize and under
// one small enough that every shape's groups outgrow it. Each walk is taken
// twice on one explorer: the warm walk reads every partition from the group
// cache, where the cold one (and its session's own passes) left it, and is
// held to the same assertions. At every step the pass reads exactly as many
// partitions as partitionsOf, which sizes its memo, counts.
func TestDerivedGroupsMatchMaterialized(t *testing.T) {
	for _, ds := range walkShapes {
		t.Run(ds.name, func(t *testing.T) {
			db, err := ds.build(gen.Config{Seed: 11, Scale: ds.scale})
			if err != nil {
				t.Fatal(err)
			}
			// The shipped bound, and one small enough that every shape samples
			// and has Change groups above it.
			for _, n := range []int{DefaultConfig().RecSampleSize, 200} {
				t.Run(fmt.Sprintf("sample_%d", n), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.RecSampleSize = n
					ex, err := NewExplorer(db, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// The cold walk builds the partitions; the warm one, the same walk on
					// the same explorer, finds them in the group cache.
					for _, walk := range []string{"cold", "warm"} {
						t.Run(walk, func(t *testing.T) {
							sess, err := NewSession(ex, RecommendationPowered, query.Description{})
							if err != nil {
								t.Fatal(err)
							}
							rng := rand.New(rand.NewSource(11))
							kinds := make(map[query.OpKind]int)
							var empty, multiValued, deepest, sampled, sampledWhole int
							for step := 0; step < 8; step++ {
								res, err := sess.Step()
								if err != nil {
									t.Fatal(err)
								}
								cur := sess.Current()
								deepest = max(deepest, cur.Len())
								candidates, err := sess.rb.CandidateOps(cur, res.Maps)
								if err != nil {
									t.Fatal(err)
								}
								ops := append(slices.Clip(candidates), missingLabelFilters(ex, cur)...)
								group, err := ex.Query.Materialize(cur)
								if err != nil {
									t.Fatal(err)
								}
								pass := newRecPass(ex, group, 0, candidates) // gate off: every utility is computed
								var nonEmpty []query.Operation
								for _, op := range ops {
									got, err := pass.records(op)
									if err != nil {
										t.Fatalf("%s: %v", op, err)
									}
									g, err := ex.Query.Materialize(op.Target)
									if err != nil {
										t.Fatalf("%s: %v", op, err)
									}
									want := query.Sample(nil, g.Records, ex.Cfg.RecSampleSize)
									switch {
									case len(want) == g.Len():
									case op.Added != nil:
										sampled++
									default:
										sampledWhole++
									}
									if !slices.Equal(got, want) {
										t.Fatalf("step %d at %s, %s → %s: derived %d records, want %d of the %d materialized (first of each: %v / %v)",
											step, cur, op, op.Target, len(got), len(want), g.Len(), head(got), head(want))
									}
									if memo, fresh := pass.candidates(op), ex.Gen.Candidates(ex.Query, op.Target); !slices.Equal(memo, fresh) {
										t.Fatalf("step %d at %s, %s → %s: memoized candidates %v, enumerated %v", step, cur, op, op.Target, memo, fresh)
									}
									u, _, err := sess.rb.operationUtility(pass, op, sess.Seen())
									if err != nil {
										t.Fatal(err)
									}
									ref, err := ex.OperationUtility(op, sess.Seen())
									if err != nil {
										t.Fatal(err)
									}
									if u != ref {
										t.Fatalf("step %d at %s, %s: derived utility %v, reference %v", step, cur, op, u, ref)
									}
									kinds[op.Kind]++
									if len(got) == 0 {
										empty++
									} else {
										nonEmpty = append(nonEmpty, op)
									}
									if op.Added != nil && isMultiValued(ex, *op.Added) {
										multiValued++
									}
								}
								if got, want := len(pass.parts), partitionsOf(candidates); got != want {
									t.Errorf("step %d at %s: the pass read %d partitions, partitionsOf counts %d", step, cur, got, want)
								}
								if walk == "warm" && pass.built != 0 {
									t.Errorf("step %d at %s: the warm walk built %d partitions, want every one found in the group cache", step, cur, pass.built)
								}
								// Drill down first, so the walk passes through one-, two- and
								// three-selector selections; then move any way the candidates allow.
								next := nonEmpty
								if cur.Len() < 3 {
									next = slices.DeleteFunc(slices.Clone(nonEmpty), func(op query.Operation) bool { return op.Kind != query.Filter })
								}
								if len(next) == 0 {
									break
								}
								if err := sess.Apply(next[rng.Intn(len(next))]); err != nil {
									t.Fatal(err)
								}
							}
							for k := query.Filter; k <= query.FilterChange; k++ {
								if kinds[k] == 0 {
									t.Errorf("the walk never produced a %s candidate", k)
								}
							}
							if deepest < 3 {
								t.Errorf("the walk never reached a three-selector selection (deepest %d)", deepest)
							}
							if empty == 0 {
								t.Error("the walk never derived an empty group")
							}
							if (ds.name == "yelp" || n < DefaultConfig().RecSampleSize) && sampled == 0 {
								t.Error("the walk never derived a group larger than RecSampleSize through a bounded partition")
							}
							if n < DefaultConfig().RecSampleSize && sampledWhole == 0 {
								t.Error("the walk never derived a Change or Generalize group larger than RecSampleSize, which the pass samples into its buffer")
							}
							hasMulti := false
							for _, tab := range []*dataset.EntityTable{db.Reviewers, db.Items} {
								for a := 0; a < tab.Schema.Len(); a++ {
									hasMulti = hasMulti || tab.Schema.At(a).Kind == dataset.MultiValued
								}
							}
							if hasMulti && multiValued == 0 {
								t.Error("the walk never filtered on the dataset's multi-valued attribute")
							}
						})
					}
				})
			}
		})
	}
}

// missingLabelFilters are the drill-downs CandidateOps never proposes: into
// the missing label of every unbound attribute.
func missingLabelFilters(ex *Explorer, cur query.Description) []query.Operation {
	var ops []query.Operation
	for _, gc := range ex.Query.GroupingCandidates(cur) {
		s := query.Selector{Side: gc.Side, Attr: gc.Attr, Value: dataset.MissingLabel}
		if target, err := cur.With(s); err == nil {
			ops = append(ops, query.Operation{Kind: query.Filter, Target: target, Added: &s})
		}
	}
	return ops
}

func isMultiValued(ex *Explorer, s query.Selector) bool {
	tab := ex.DB.Reviewers
	if s.Side == query.ItemSide {
		tab = ex.DB.Items
	}
	return tab.Schema.At(tab.Schema.Index(s.Attr)).Kind == dataset.MultiValued
}

func head(records []int32) []int32 { return records[:min(len(records), 5)] }

// TestRecommendConcurrentSessionsShareNoPassState steps two sessions of one
// explorer at once and holds each to the recommendations the same walk gets
// without the other beside it: sessions share the explorer, its caches and
// its sync.Pools. The pass memo, the gate, the pass's buffers and the engine
// Result every candidate is scored into (its maps, utilities, scores and
// Profile) are per RecommendCtx call, so the other session cannot disturb
// them; the partitions are shared, through
// the group cache, and immutable. Both walks pass through the root — one
// starts there, and it is the other's roll-up — so their passes read
// partitions built by an earlier pass, possibly the other session's, and the
// test asserts that they do reuse some. Run under -race in CI, and 20 times
// over in a step of its own.
func TestRecommendConcurrentSessionsShareNoPassState(t *testing.T) {
	db := coreDB(t)
	starts := []query.Description{
		{},
		query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"}),
	}
	// walk also returns how many partitions its passes found in the group
	// cache instead of building them.
	walk := func(ex *Explorer, start query.Description) ([][]Recommendation, int, error) {
		sess, err := NewSession(ex, RecommendationPowered, start)
		if err != nil {
			return nil, 0, err
		}
		var out [][]Recommendation
		reused := 0
		for step := 0; step < 4; step++ {
			sink := obs.NewRingSink(1)
			res, err := sess.StepCtx(obs.WithSink(context.Background(), sink))
			if err != nil {
				return nil, 0, err
			}
			for _, root := range sink.Snapshot("", 0) {
				for _, c := range root.Children {
					if c.Name == "core.recommend" {
						reused += c.Attrs["partitions_reused"].(int)
					}
				}
			}
			out = append(out, res.Recommendations)
			if len(res.Recommendations) == 0 {
				break
			}
			if err := sess.ApplyRecommendation(step % len(res.Recommendations)); err != nil {
				return nil, 0, err
			}
		}
		return out, reused, nil
	}

	alone, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := make([][][]Recommendation, len(starts))
	reused := make([]int, len(starts))
	errs := make([]error, len(starts))
	var wg sync.WaitGroup
	for i, start := range starts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], reused[i], errs[i] = walk(shared, start)
		}()
	}
	wg.Wait()
	if reused[0]+reused[1] == 0 {
		t.Error("the shared explorer's passes reused no partition: the sessions never read a partition from the group cache")
	}
	for i, start := range starts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, _, err := walk(alone, start)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("session %d: %d steps concurrently, %d alone", i, len(got[i]), len(want))
		}
		for step := range want {
			if len(got[i][step]) != len(want[step]) {
				t.Fatalf("session %d step %d: %d recommendations, want %d", i, step, len(got[i][step]), len(want[step]))
			}
			for r, w := range want[step] {
				g := got[i][step][r]
				if !g.Op.Target.Equal(w.Op.Target) || g.Utility != w.Utility {
					t.Fatalf("session %d step %d #%d: %s (%v), want %s (%v)", i, step, r, g.Op, g.Utility, w.Op, w.Utility)
				}
			}
		}
	}
}

// TestRecommendSpanSaysWhereGroupsCameFrom pins the core.recommend span's
// account of a Yelp-shaped step from a one-selector selection: every
// candidate evaluated, exactly spanBounded of them turned down by the bound
// gate — candidates are evaluated in CandidateOps order, so the count is a
// function of the step and a second pass over it reports it too (demo
// data, which this test used to walk, is too even for the gate: at this step
// every candidate's three best maps score ≈ 0.33 each, so every bound is
// ≈ 1.0 and no exact utility is above 0.86) — every one but the roll-up
// derived, two materializations (the selection and the roll-up), and
// partitions holding at least the displayed group's sample once each. A
// second pass over the step on the same explorer builds none: it finds every
// partition in the group cache and recommends what the first did.
func TestRecommendSpanSaysWhereGroupsCameFrom(t *testing.T) {
	const spanBounded = 161
	db := coreDB(t)
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	values, err := ex.Query.AttributeValues(query.ReviewerSide, db.Reviewers.Schema.At(0).Name)
	if err != nil {
		t.Fatal(err)
	}
	start := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: db.Reviewers.Schema.At(0).Name, Value: values[0]})
	sess, err := NewSession(ex, RecommendationPowered, start)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewRingSink(4)
	res, err := sess.StepCtx(obs.WithSink(context.Background(), sink))
	if err != nil {
		t.Fatal(err)
	}
	var rec *obs.SpanData
	for _, root := range sink.Snapshot("", 0) {
		for _, c := range root.Children {
			if c.Name == "core.recommend" {
				rec = c
			}
		}
	}
	if rec == nil {
		t.Fatal("the step recorded no core.recommend span under core.step")
	}
	evaluated := len(res.RecOpDurations)
	if evaluated == 0 {
		t.Fatal("the step evaluated no candidate")
	}
	attr := func(key string) int {
		v, ok := rec.Attrs[key].(int)
		if !ok {
			t.Fatalf("core.recommend has no integer attribute %q: %v", key, rec.Attrs)
		}
		return v
	}
	if got := attr("evaluated"); got != evaluated {
		t.Errorf("evaluated = %d, want %d", got, evaluated)
	}
	// The gate turns candidates down without taking them out of the count:
	// every candidate CandidateOps proposed is evaluated and has a duration.
	ops, err := sess.rb.CandidateOps(start, res.Maps)
	if err != nil {
		t.Fatal(err)
	}
	if evaluated != len(ops) {
		t.Errorf("%d RecOpDurations for %d candidate operations", evaluated, len(ops))
	}
	if got := attr("bounded"); got != spanBounded {
		t.Errorf("bounded = %d of %d evaluated, want %d", got, evaluated, spanBounded)
	}
	if got := attr("groups_derived"); got != evaluated-1 {
		t.Errorf("groups_derived = %d, want every candidate but the roll-up (%d)", got, evaluated-1)
	}
	if got := attr("groups_materialized"); got != 2 {
		t.Errorf("groups_materialized = %d, want 2 (the selection and its roll-up)", got)
	}
	built, records := attr("partitions_built"), attr("partition_records")
	if built < 2 || built >= evaluated {
		t.Errorf("partitions_built = %d, want at least one per base and far fewer than the %d candidates", built, evaluated)
	}
	if floor := min(res.GroupSize, ex.Cfg.RecSampleSize); records < floor {
		t.Errorf("partition_records = %d, want at least the displayed group's sample, %d records", records, floor)
	}
	if got := attr("partitions_reused"); got != 0 {
		t.Errorf("partitions_reused = %d on the first pass of a new explorer, want 0", got)
	}

	// A second pass over the same step on the same explorer finds every
	// partition the first one built in the group cache, and recommends what
	// it did.
	recs, _, again := recommendTraced(t, ex, start, res.Maps, sess.Seen(), ex.Cfg.O)
	assertSameRecommendations(t, "a second pass over the same step", recs, res.Recommendations)
	if again["bounded"] != spanBounded {
		t.Errorf("a second pass over the same step: bounded = %v, want %d", again["bounded"], spanBounded)
	}
	if again["partitions_built"] != 0 || again["partition_records"] != 0 || again["partitions_reused"] != built {
		t.Errorf("a second pass over the same step built %v partitions holding %v records and reused %v, want 0, 0 and %d",
			again["partitions_built"], again["partition_records"], again["partitions_reused"], built)
	}
}

var benchRecs []Recommendation

// BenchmarkRecommendPass is the inner loop of a guided step on its own: one
// recommendation pass (CandidateOps, group derivation, ~300 × Algorithm 1)
// on the three dataset shapes — Yelp at scale 0.05 (4 dimensions, the item
// side folds), MovieLens at 0.2 (1 dimension, tens of ratings an entity) and
// Hotels at 0.2 (4 dimensions, 28 attributes' worth of candidates) — from
// the root, a one-selector and a three-selector selection, each cold and
// warm. A cache_off arm does the pass's full work on every iteration: no
// accumulator cache, and a fresh group cache, filled untimed with only the
// groups the step has already materialized (the selection and its roll-ups),
// so every query.Partition is built. A cache_on arm runs as binaries ship
// it: caches of its own, so the first iteration (all CI's -benchtime 1x
// runs) misses and fills them, and the later ones are the warm figure — what
// a pass costs beside its scans, every partition found in the group cache
// where the previous pass left it. …/root/instrumented is
// root/cache_on as a served step runs it: under Explorer.Instrument and a
// span sink, every candidate's engine.topmaps and engine.phase spans and
// hot-path metrics included — the in-tree figure behind obs.overhead_frac.
// Reports candidates/op and bounded/op — the candidates the bound gate
// turned down, the same on every iteration (the gate is a function of the
// pass's input), read off the core.recommend spans of two more, untimed
// passes that must agree — beside ns/op, B/op and allocs/op. With the cache on, most candidates of a
// pass are under its admission floor and bypass it, as they do in a binary.
func BenchmarkRecommendPass(b *testing.B) {
	for _, shape := range []struct {
		name string
		gen  func(gen.Config) (*dataset.DB, error)
		cfg  gen.Config
	}{
		{"yelp", gen.Yelp, gen.Config{Seed: 1, Scale: 0.05}},
		{"movielens", gen.Movielens, gen.Config{Seed: 1, Scale: 0.2}},
		{"hotels", gen.Hotels, gen.Config{Seed: 1, Scale: 0.2}},
	} {
		db, err := shape.gen(shape.cfg)
		if err != nil {
			b.Fatal(err)
		}
		ex, err := NewExplorer(db, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		// Drill down the first value that keeps the group non-empty, one
		// attribute at a time, to get selections of every depth.
		selections := []query.Description{{}}
		cur := query.Description{}
		for _, gc := range ex.Query.GroupingCandidates(cur) {
			if cur.Len() == 3 {
				break
			}
			values, _ := ex.Query.AttributeValues(gc.Side, gc.Attr)
			for _, v := range values {
				next, err := cur.With(query.Selector{Side: gc.Side, Attr: gc.Attr, Value: v})
				if err != nil {
					continue
				}
				if g, err := ex.Query.Materialize(next); err == nil && g.Len() >= 50 {
					cur = next
					selections = append(selections, cur)
					break
				}
			}
		}
		if cur.Len() != 3 {
			b.Fatalf("%s: could not drill down to a three-selector selection, stopped at %s", shape.name, cur)
		}
		for _, arm := range []struct {
			desc         query.Description
			cache        bool
			instrumented bool
		}{
			{desc: selections[0]}, {desc: selections[0], cache: true}, {desc: selections[0], cache: true, instrumented: true},
			{desc: selections[1]}, {desc: selections[1], cache: true},
			{desc: selections[3]}, {desc: selections[3], cache: true},
		} {
			desc, variant := arm.desc, "cache_off"
			switch {
			case arm.instrumented:
				variant = "instrumented"
			case arm.cache:
				variant = "cache_on"
			}
			b.Run(shape.name+"/"+benchName(desc)+"/"+variant, func(b *testing.B) {
				ex.Gen.Cache = nil
				if arm.cache {
					ex.Gen.Cache = engine.NewTopMapsCache(engineCacheRecords)
				}
				ex.Query.EnableGroupCache(groupCacheBytes)
				ctx := context.Background()
				ex.Instrument(nil)
				if arm.instrumented {
					ex.Instrument(obs.NewRegistry())
					ctx = obs.WithSink(ctx, obs.NewRingSink(8))
				}
				seen := ratingmap.NewSeenSet()
				res, err := ex.rmSet(context.Background(), desc, seen)
				if err != nil {
					b.Fatal(err)
				}
				for _, rm := range res.Maps {
					seen.Add(rm)
				}
				rb := RecommendationBuilder{Ex: ex}
				candidates := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !arm.cache {
						b.StopTimer()
						ex.Query.EnableGroupCache(groupCacheBytes)
						for _, d := range append(rollUps(desc), desc) {
							if _, err := ex.Query.Materialize(d); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
					}
					stepCtx, root := obs.StartSpan(ctx, "core.step") // nil, and free, without a sink
					recs, durs, err := rb.RecommendCtx(stepCtx, desc, res.Maps, seen, ex.Cfg.O)
					root.End()
					if err != nil {
						b.Fatal(err)
					}
					benchRecs = recs
					candidates += len(durs)
				}
				b.StopTimer()
				b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
				var bounded [2]int
				for i := range bounded {
					sink := obs.NewRingSink(1)
					if _, _, err := rb.RecommendCtx(obs.WithSink(context.Background(), sink), desc, res.Maps, seen, ex.Cfg.O); err != nil {
						b.Fatal(err)
					}
					bounded[i] = sink.Snapshot("", 0)[0].Attrs["bounded"].(int)
				}
				if bounded[0] != bounded[1] {
					b.Fatalf("the gate turned down %d candidates, then %d, of one pass", bounded[0], bounded[1])
				}
				b.ReportMetric(float64(bounded[0]), "bounded/op")
			})
		}
	}
}

// rollUps are a selection without each one of its selectors.
func rollUps(d query.Description) []query.Description {
	var out []query.Description
	for _, s := range d.Selectors() {
		if up, err := d.Without(s); err == nil {
			out = append(out, up)
		}
	}
	return out
}

func benchName(d query.Description) string {
	switch d.Len() {
	case 0:
		return "root"
	case 1:
		return "one_selector"
	}
	return "three_selectors"
}
