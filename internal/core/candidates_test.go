package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/dataset/datasettest"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// referenceCandidateOps is CandidateOps as it was before its operations were
// distinct by construction: the same loops, every operation they propose
// kept unless its target's key — or cur's — was seen before.
func referenceCandidateOps(rb *RecommendationBuilder, cur query.Description, maps []*ratingmap.RatingMap) ([]query.Operation, error) {
	lim := rb.Ex.Cfg.Limits
	seen := map[string]bool{cur.Key(): true}
	var ops []query.Operation
	add := func(op query.Operation) bool {
		k := op.Target.Key()
		if seen[k] {
			return true
		}
		seen[k] = true
		ops = append(ops, op)
		return lim.MaxCandidates == 0 || len(ops) < lim.MaxCandidates
	}
	for _, side := range []query.Side{query.ReviewerSide, query.ItemSide} {
		var t = rb.Ex.DB.Reviewers
		if side == query.ItemSide {
			t = rb.Ex.DB.Items
		}
		for a := 0; a < t.Schema.Len(); a++ {
			attr := t.Schema.At(a).Name
			if cur.BindsAttr(side, attr) {
				continue
			}
			for _, v := range t.Dict(a).Values() {
				sel := query.Selector{Side: side, Attr: attr, Value: v}
				target, err := cur.With(sel)
				if err != nil {
					continue
				}
				s := sel
				if !add(query.Operation{Kind: query.Filter, Target: target, Added: &s}) {
					return ops, nil
				}
			}
		}
	}
	for _, rm := range maps {
		dict := rb.dictOf(rm)
		values := rm.Subgroups
		if lim.MaxValuesPerAttribute > 0 && len(values) > lim.MaxValuesPerAttribute {
			values = values[:lim.MaxValuesPerAttribute]
		}
		for i := range values {
			sel := query.Selector{Side: rm.Side, Attr: rm.Attr, Value: dict.Value(values[i].Value)}
			if cur.BindsAttr(sel.Side, sel.Attr) {
				continue
			}
			target, err := cur.With(sel)
			if err != nil {
				continue
			}
			s := sel
			if !add(query.Operation{Kind: query.Filter, Target: target, Added: &s}) {
				return ops, nil
			}
			for _, old := range cur.Selectors() {
				old := old
				if t2, err := target.Without(old); err == nil {
					if !add(query.Operation{Kind: query.FilterGeneralize, Target: t2, Added: &s, Removed: &old}) {
						return ops, nil
					}
				}
				vals, err := rb.Ex.Query.AttributeValues(old.Side, old.Attr)
				if err != nil {
					return nil, err
				}
				if lim.MaxValuesPerAttribute > 0 && len(vals) > lim.MaxValuesPerAttribute {
					vals = vals[:lim.MaxValuesPerAttribute]
				}
				for _, v := range vals {
					if v == old.Value {
						continue
					}
					if t2, err := target.WithChanged(old, v); err == nil {
						if !add(query.Operation{Kind: query.FilterChange, Target: t2, Added: &s, Changed: &old, ChangedTo: v}) {
							return ops, nil
						}
					}
				}
			}
		}
	}
	for _, old := range cur.Selectors() {
		old := old
		if target, err := cur.Without(old); err == nil {
			if !add(query.Operation{Kind: query.Generalize, Target: target, Removed: &old}) {
				return ops, nil
			}
		}
		vals, err := rb.Ex.Query.AttributeValues(old.Side, old.Attr)
		if err != nil {
			return nil, err
		}
		if lim.MaxValuesPerAttribute > 0 && len(vals) > lim.MaxValuesPerAttribute {
			vals = vals[:lim.MaxValuesPerAttribute]
		}
		for _, v := range vals {
			if v == old.Value {
				continue
			}
			if target, err := cur.WithChanged(old, v); err == nil {
				if !add(query.Operation{Kind: query.Change, Target: target, Changed: &old, ChangedTo: v}) {
					return ops, nil
				}
			}
		}
	}
	return ops, nil
}

// checkCandidateOps holds CandidateOps to the keyed reference under the
// explorer's limits: the same operations in the same order — kind, target
// and every delta field — in a list of exactly their number.
func checkCandidateOps(ex *Explorer, cur query.Description, maps []*ratingmap.RatingMap) error {
	rb := &RecommendationBuilder{Ex: ex}
	got, err := rb.CandidateOps(cur, maps)
	if err != nil {
		return err
	}
	want, err := referenceCandidateOps(rb, cur, maps)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d operations, the reference has %d", len(got), len(want))
	}
	if cap(got) != len(got) {
		return fmt.Errorf("%d operations in a list sized for %d", len(got), cap(got))
	}
	for i, w := range want {
		if g := got[i]; g.Kind != w.Kind || g.Target.Key() != w.Target.Key() || !sameSelector(g.Added, w.Added) ||
			!sameSelector(g.Removed, w.Removed) || !sameSelector(g.Changed, w.Changed) || g.ChangedTo != w.ChangedTo {
			return fmt.Errorf("#%d is %s %s → %s, the reference has %s %s → %s", i, g.Kind, g, g.Target, w.Kind, w, w.Target)
		}
	}
	return nil
}

func sameSelector(a, b *query.Selector) bool {
	return (a == nil) == (b == nil) && (a == nil || *a == *b)
}

// repeatedAnchors counts the displayed maps that group by an attribute an
// earlier one does: the maps whose anchors repeat.
func repeatedAnchors(maps []*ratingmap.RatingMap) int {
	n := 0
	for i, rm := range maps {
		for _, prev := range maps[:i] {
			if prev.Side == rm.Side && prev.Attr == rm.Attr {
				n++
				break
			}
		}
	}
	return n
}

// TestCandidateOpsMatchKeyedReference walks demo (its roast attribute is
// multi-valued), Yelp, MovieLens, Hotels and Yelp with a fifth of its cells
// blank, and at every step holds CandidateOps of the displayed maps to the
// keyed reference: under the default limits, under a small
// MaxValuesPerAttribute, and under MaxCandidates caps that cut the list in
// each of its three loops. On every shape with more than one rating
// dimension some step must display two maps of one attribute, the case the
// anchor list exists for.
func TestCandidateOpsMatchKeyedReference(t *testing.T) {
	dbs := map[string]*dataset.DB{}
	names := []string{"yelp_missing_cells"}
	for _, ds := range walkShapes {
		db, err := ds.build(gen.Config{Seed: 11, Scale: ds.scale})
		if err != nil {
			t.Fatal(err)
		}
		dbs[ds.name] = db
		names = append(names, ds.name)
	}
	dbs["yelp_missing_cells"] = datasettest.WithMissingCells(t, dbs["yelp"], 0.2, 1)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			db := dbs[name]
			ex, err := NewExplorer(db, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			cur, seen := query.Description{}, ratingmap.NewSeenSet()
			repeats, deepest := 0, 0
			for step := 0; step < 8; step++ {
				res, err := ex.rmSet(context.Background(), cur, seen)
				if err != nil {
					t.Fatal(err)
				}
				for _, rm := range res.Maps {
					seen.Add(rm)
				}
				repeats += repeatedAnchors(res.Maps)
				deepest = max(deepest, cur.Len())
				ex.Cfg.Limits = DefaultConfig().Limits
				ops, err := (&RecommendationBuilder{Ex: ex}).CandidateOps(cur, res.Maps)
				if err != nil {
					t.Fatal(err)
				}
				for _, lim := range []CandidateLimits{
					{}, {MaxValuesPerAttribute: 2},
					{MaxCandidates: 1}, {MaxCandidates: len(ops) / 3, MaxValuesPerAttribute: 2},
					{MaxCandidates: 2 * len(ops) / 3}, {MaxCandidates: len(ops) - 1},
				} {
					ex.Cfg.Limits = lim
					if err := checkCandidateOps(ex, cur, res.Maps); err != nil {
						t.Fatalf("step %d at %s, %+v: %v", step, cur, lim, err)
					}
				}
				// Drill down first, then move any way the candidates allow.
				var next query.Description
				for _, i := range rng.Perm(len(ops)) {
					if cur.Len() < 3 && ops[i].Kind != query.Filter {
						continue
					}
					if g, err := ex.Query.Materialize(ops[i].Target); err == nil && g.Len() > 0 {
						next = ops[i].Target
						break
					}
				}
				if next.IsEmpty() {
					break
				}
				cur = next
			}
			if deepest < 2 {
				t.Errorf("the walk never reached a two-selector selection (deepest %d)", deepest)
			}
			if len(db.Ratings.Dimensions) > 1 && repeats == 0 {
				t.Error("no step displayed two maps of one attribute, so no anchor repeated")
			}
		})
	}
}

// FuzzCandidateOps holds CandidateOps to the keyed reference on demo data.
// The bytes pick the limits, a selection of up to three selectors, and the
// maps passed as displayed — any of the selection's candidate rating maps,
// built over its records, so two maps of one attribute and one map twice
// are both in reach.
func FuzzCandidateOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2})
	f.Add([]byte{2, 0, 0, 3, 1, 255, 255, 255, 255, 0, 1, 4, 5, 1})
	f.Add([]byte{0, 0, 9, 1, 0, 6, 2, 255, 255, 3, 0, 1, 0, 0})
	f.Add([]byte{3, 0, 40, 4, 2, 0, 1, 7, 3, 3, 8, 9, 8, 12, 2})
	db, err := gen.Demo(gen.Config{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	var attrs []query.GroupingCandidate // every attribute, one or more values
	for _, side := range []query.Side{query.ReviewerSide, query.ItemSide} {
		t := db.Reviewers
		if side == query.ItemSide {
			t = db.Items
		}
		for a := 0; a < t.Schema.Len(); a++ {
			attrs = append(attrs, query.GroupingCandidate{Side: side, Attr: t.Schema.At(a).Name})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		ex.Cfg.Limits = CandidateLimits{MaxValuesPerAttribute: next() % 5, MaxCandidates: next()<<8 | next()}
		cur := query.Description{}
		for i := 0; i < 3; i++ {
			a, v := next(), next()
			if a == 255 {
				continue
			}
			gc := attrs[a%len(attrs)]
			values, err := ex.Query.AttributeValues(gc.Side, gc.Attr)
			if err != nil {
				t.Fatal(err)
			}
			if len(values) == 0 {
				continue
			}
			if d, err := cur.With(query.Selector{Side: gc.Side, Attr: gc.Attr, Value: values[v%len(values)]}); err == nil {
				cur = d
			}
		}
		group, err := ex.Query.Materialize(cur)
		if err != nil {
			t.Fatal(err)
		}
		keys := ex.Gen.Candidates(ex.Query, cur)
		var picked []ratingmap.Key
		for len(data) > 0 && len(keys) > 0 && len(picked) < 6 {
			picked = append(picked, keys[next()%len(keys)])
		}
		maps := ex.Gen.Builder.Build(cur, group.Records, picked)
		if err := checkCandidateOps(ex, cur, maps); err != nil {
			t.Fatalf("at %s with limits %+v and maps %v: %v", cur, ex.Cfg.Limits, picked, err)
		}
	})
}

// TestKeepTopIsTheStableSort holds keepTop, fed candidates one at a time, to
// what RecommendCtx used to do with them: append every one, sort stably by
// descending utility and cut to o. Utilities come from a few levels, so
// ties are long, and zeros — the utility of an empty group — are common;
// o runs from below zero past the number of candidates.
func TestKeepTopIsTheStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	levels := []float64{0, 0, 0.25, 0.5, 1, 1.75}
	for round := 0; round < 3000; round++ {
		n := rng.Intn(12)
		arrivals := make([]Recommendation, n)
		for i := range arrivals {
			u := levels[rng.Intn(len(levels))]
			if round%3 == 0 {
				u = rng.Float64()
			}
			arrivals[i] = Recommendation{Op: query.Operation{ChangedTo: strconv.Itoa(i)}, Utility: u}
		}
		for o := -1; o <= n+2; o++ {
			want := append([]Recommendation(nil), arrivals...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Utility > want[j].Utility })
			if o > 0 && len(want) > o {
				want = want[:o]
			}
			top := n
			if o > 0 {
				top = min(o, n)
			}
			got := make([]Recommendation, 0, top)
			for _, r := range arrivals {
				got = keepTop(got, r, o)
			}
			if cap(got) != top {
				t.Fatalf("o = %d over %d candidates: the list grew to a capacity of %d", o, n, cap(got))
			}
			if len(got) != len(want) {
				t.Fatalf("o = %d over %v: %d kept, the sort keeps %d", o, arrivals, len(got), len(want))
			}
			for i := range want {
				if got[i].Op.ChangedTo != want[i].Op.ChangedTo || got[i].Utility != want[i].Utility {
					t.Fatalf("o = %d over %s: kept %s, the sort keeps %s", o, arrivalOrder(arrivals), arrivalOrder(got), arrivalOrder(want))
				}
			}
		}
	}
}

// arrivalOrder renders recommendations as arrival#utility.
func arrivalOrder(recs []Recommendation) string {
	s := ""
	for _, r := range recs {
		s += fmt.Sprintf(" %s#%v", r.Op.ChangedTo, r.Utility)
	}
	return s
}

// TestRecommendTopOIsTheStableSort runs a two-selector Yelp-shaped step,
// some of whose candidates have empty groups, through RecommendCtx under o from below zero past the
// number of candidates, twice in a row each, and holds both calls to the
// stably sorted reference cut to o: the second call finds nothing of the
// first's buffers.
func TestRecommendTopOIsTheStableSort(t *testing.T) {
	db := coreDB(t)
	ex, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewExplorer(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plain.Gen.Cache = nil
	// A reviewer and an item selector: narrow enough for empty groups.
	var sels []query.Selector
	for side, tab := range []*dataset.EntityTable{db.Reviewers, db.Items} {
		attr := tab.Schema.At(0).Name
		values, err := ex.Query.AttributeValues(query.Side(side), attr)
		if err != nil {
			t.Fatal(err)
		}
		sels = append(sels, query.Selector{Side: query.Side(side), Attr: attr, Value: values[0]})
	}
	cur := query.MustDescription(sels...)
	seen := ratingmap.NewSeenSet()
	res, err := ex.rmSet(context.Background(), cur, seen)
	if err != nil {
		t.Fatal(err)
	}
	all := referenceRecommendations(t, plain, cur, res.Maps, seen, 0)
	empty := 0
	for _, r := range all {
		if g, err := ex.Query.Materialize(r.Op.Target); err == nil && g.Len() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no candidate of the step has an empty group")
	}
	rb := RecommendationBuilder{Ex: ex}
	for _, o := range []int{-1, 0, 1, 2, 3, 10, len(all), len(all) + 5} {
		want := all
		if o > 0 && len(want) > o {
			want = want[:o]
		}
		for call := 0; call < 2; call++ {
			got, durs, err := rb.RecommendCtx(context.Background(), cur, res.Maps, seen, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(durs) != len(all) {
				t.Fatalf("o = %d: %d durations for %d candidates", o, len(durs), len(all))
			}
			assertSameRecommendations(t, fmt.Sprintf("o = %d, call %d", o, call+1), got, want)
		}
	}
}
