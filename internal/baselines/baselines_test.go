package baselines

import (
	"fmt"
	"slices"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/query"
	"subdex/internal/query/querytest"
)

func baseDB(t testing.TB) *dataset.DB {
	t.Helper()
	db, err := gen.Yelp(gen.Config{Seed: 4, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func engineOf(t testing.TB, db *dataset.DB) *query.Engine {
	t.Helper()
	qe, err := query.NewEngine(db)
	if err != nil {
		t.Fatal(err)
	}
	return qe
}

func allRecords(db *dataset.DB) []int32 {
	rs := make([]int32, db.Ratings.Len())
	for i := range rs {
		rs[i] = int32(i)
	}
	return rs
}

func mustIndex(t testing.TB, qe *query.Engine, cur query.Description, records []int32) *coverageIndex {
	t.Helper()
	ci, err := buildCoverageIndex(qe, cur, records)
	if err != nil {
		t.Fatal(err)
	}
	return ci
}

// oracleIndex is the coverage index as a scan of the group builds it: the
// pairs in the order the scan meets them, with a pair list per record. It
// is the reference the partition-backed coverageIndex is tested against.
type oracleIndex struct {
	pairs   []pair // without records
	count   []int
	pairsOf [][]int32 // per record index, the ids of its pairs
}

func buildOracleIndex(db *dataset.DB, cur query.Description, records []int32) *oracleIndex {
	type key struct {
		side  query.Side
		attr  string
		value dataset.ValueID
	}
	oi := &oracleIndex{pairsOf: make([][]int32, len(records))}
	ids := map[key]int32{}
	add := func(ri int, k key) {
		id, ok := ids[k]
		if !ok {
			id = int32(len(oi.pairs))
			ids[k] = id
			oi.pairs = append(oi.pairs, pair{side: k.side, attr: k.attr, value: k.value})
			oi.count = append(oi.count, 0)
		}
		oi.count[id]++
		oi.pairsOf[ri] = append(oi.pairsOf[ri], id)
	}
	scan := func(side query.Side, t *dataset.EntityTable, rowOf []int32) {
		for a := 0; a < t.Schema.Len(); a++ {
			name := t.Schema.At(a).Name
			if cur.BindsAttr(side, name) {
				continue
			}
			for ri, r := range records {
				row := int(rowOf[r])
				switch t.Schema.At(a).Kind {
				case dataset.Atomic:
					if v := t.AtomicValue(a, row); v != dataset.MissingValue {
						add(ri, key{side, name, v})
					}
				case dataset.MultiValued:
					for _, v := range t.MultiValues(a, row) {
						add(ri, key{side, name, v})
					}
				}
			}
		}
	}
	scan(query.ReviewerSide, db.Reviewers, db.Ratings.Reviewer)
	scan(query.ItemSide, db.Items, db.Ratings.Item)
	return oi
}

// coveredBy returns the records (not record indexes) whose pair lists
// hold every pair of a conjunction.
func (oi *oracleIndex) coveredBy(records []int32, pairIDs []int32) []int32 {
	var out []int32
	for ri, ps := range oi.pairsOf {
		n := 0
		for _, id := range ps {
			if slices.Contains(pairIDs, id) {
				n++
			}
		}
		if n == len(pairIDs) {
			out = append(out, records[ri])
		}
	}
	return out
}

// missingDB is a database with what the generators never make: atomic
// values missing, and multi-valued cells of zero, one and several values.
func missingDB(t testing.TB) *dataset.DB {
	t.Helper()
	rs, _ := dataset.NewSchema(dataset.Attribute{Name: "gender"}, dataset.Attribute{Name: "age_group"})
	is, _ := dataset.NewSchema(dataset.Attribute{Name: "cuisine", Kind: dataset.MultiValued}, dataset.Attribute{Name: "city"})
	reviewers := dataset.NewEntityTable("reviewers", rs)
	items := dataset.NewEntityTable("items", is)
	genders := []string{"F", "M", "", "F", "M", "X"}
	ages := []string{"young", "", "middle", "old", "young", ""}
	for i := range genders {
		if _, err := reviewers.AppendRow(fmt.Sprint("u", i), map[string]string{"gender": genders[i], "age_group": ages[i]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	cuisines := [][]string{{"pizza", "italian"}, nil, {"sushi"}, {"sushi", "japanese", "bbq"}, {"pizza"}}
	cities := []string{"NYC", "Austin", "", "NYC", ""}
	for i := range cuisines {
		if _, err := items.AppendRow(fmt.Sprint("r", i), map[string]string{"city": cities[i]}, map[string][]string{"cuisine": cuisines[i]}); err != nil {
			t.Fatal(err)
		}
	}
	rt, _ := dataset.NewRatingTable(dataset.Dimension{Name: "overall", Scale: 5})
	for r := 0; r < 60; r++ {
		rt.Append((r*5+r/7)%6, (r*3+r/5)%5, []dataset.Score{dataset.Score(r%5 + 1)})
	}
	db := dataset.NewDB("missing", reviewers, items, rt)
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCoverageIndexIsTheScan holds the partition-backed index to a scan of
// the group: the same pairs in the same order with the same counts, and
// the same records covered by every single and every two of the 40
// most-covering pairs (the baselines' candidate universe), at the root and
// at a drilled selection. It runs on Yelp's and MovieLens' shapes and on
// missingDB, each with its multi-valued item attribute unbound.
func TestCoverageIndexIsTheScan(t *testing.T) {
	generated := func(generate func(gen.Config) (*dataset.DB, error)) *dataset.DB {
		db, err := generate(gen.Config{Seed: 4, Scale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, tc := range []struct {
		db      *dataset.DB
		multi   string
		drilled query.Selector
	}{
		{generated(gen.Yelp), "cuisine", query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"}},
		{generated(gen.Movielens), "genre", query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "F"}},
		{missingDB(t), "cuisine", query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "F"}},
	} {
		db := tc.db
		qe := engineOf(t, db)
		for _, cur := range []query.Description{{}, query.MustDescription(tc.drilled)} {
			g, err := qe.Materialize(cur)
			if err != nil {
				t.Fatal(err)
			}
			ci := mustIndex(t, qe, cur, g.Records)
			oi := buildOracleIndex(db, cur, g.Records)
			if len(ci.pairs) != len(oi.pairs) {
				t.Fatalf("%s at %s: %d pairs, the scan meets %d", db.Name, cur, len(ci.pairs), len(oi.pairs))
			}
			multi := false
			for id, p := range ci.pairs {
				o := oi.pairs[id]
				if p.side != o.side || p.attr != o.attr || p.value != o.value || len(p.records) != oi.count[id] {
					t.Fatalf("%s at %s: pair %d is %v %s %d ×%d, the scan's %v %s %d ×%d", db.Name, cur, id,
						p.side, p.attr, p.value, len(p.records), o.side, o.attr, o.value, oi.count[id])
				}
				multi = multi || p.attr == tc.multi
			}
			if !multi {
				t.Fatalf("%s at %s: no pair of the multi-valued %s", db.Name, cur, tc.multi)
			}
			top := ci.topPairs(topSingles)
			for i, a := range top {
				conjs := [][]int32{{a}}
				for _, b := range top[i+1:] {
					conjs = append(conjs, []int32{a, b})
				}
				for _, ids := range conjs {
					if got, want := ci.coveredBy(ids), oi.coveredBy(g.Records, ids); !slices.Equal(got, want) {
						t.Fatalf("%s at %s: pairs %v cover %d records, the scan %d", db.Name, cur, ids, len(got), len(want))
					}
				}
			}
		}
	}
}

func TestCoverageIndex(t *testing.T) {
	db := baseDB(t)
	qe := engineOf(t, db)
	recs := allRecords(db)
	ci := mustIndex(t, qe, query.Description{}, recs)
	if len(ci.pairs) == 0 {
		t.Fatal("no pairs discovered")
	}
	// The most-covering single pair must cover at most all records and at
	// least |records| / (max cardinality) records.
	top := ci.topPairs(1)
	if n := len(ci.pairs[top[0]].records); n <= 0 || n > len(recs) {
		t.Fatalf("top pair count %d out of range", n)
	}
	// Bound attributes are excluded from the index.
	bound := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "male"})
	for _, p := range mustIndex(t, qe, bound, recs).pairs {
		if p.side == query.ReviewerSide && p.attr == "gender" {
			t.Fatal("bound attribute leaked into candidate pairs")
		}
	}
}

func TestCoverageConjunction(t *testing.T) {
	db := baseDB(t)
	ci := mustIndex(t, engineOf(t, db), query.Description{}, allRecords(db))
	singles := ci.topPairs(5)
	if len(singles) < 2 {
		t.Skip("not enough pairs")
	}
	a, b := singles[0], singles[1]
	both := ci.coveredBy([]int32{a, b})
	onlyA := ci.coveredBy([]int32{a})
	if len(both) > len(onlyA) {
		t.Fatal("conjunction cannot cover more than a conjunct")
	}
}

func TestSDDOnlyDrillsDown(t *testing.T) {
	qe := engineOf(t, baseDB(t))
	cur := query.MustDescription(query.Selector{Side: query.ReviewerSide, Attr: "gender", Value: "female"})
	g, err := qe.Materialize(cur)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := SmartDrillDown{}.recommend(qe, cur, g.Records, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("SDD returned no rules")
	}
	for _, op := range ops {
		if op.Kind != query.Filter {
			t.Errorf("SDD produced a %v operation; it can only drill down", op.Kind)
		}
		// Target must be a strict superset of cur's selectors.
		for _, s := range cur.Selectors() {
			if !op.Target.Has(s) {
				t.Errorf("SDD dropped selector %s", s)
			}
		}
		if op.Target.Len() <= cur.Len() {
			t.Error("SDD target must add selectors")
		}
	}
}

func TestSDDRulesAreDeduplicated(t *testing.T) {
	db := baseDB(t)
	ops, err := SmartDrillDown{}.recommend(engineOf(t, db), query.Description{}, allRecords(db), 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, op := range ops {
		k := op.Target.Key()
		if seen[k] {
			t.Fatalf("duplicate rule %s", op.Target)
		}
		seen[k] = true
	}
}

func TestSDDMarginalCoverage(t *testing.T) {
	// The greedy must not pick two rules covering the same records when a
	// disjoint alternative exists: verified indirectly by checking the
	// union coverage strictly grows across the rule list.
	db := baseDB(t)
	qe := engineOf(t, db)
	ops, err := SmartDrillDown{}.recommend(qe, query.Description{}, allRecords(db), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) < 2 {
		t.Skip("not enough rules")
	}
	covered := map[int32]bool{}
	prev := 0
	for _, op := range ops {
		g, err := qe.Materialize(op.Target)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range g.Records {
			covered[r] = true
		}
		if len(covered) <= prev {
			t.Fatalf("rule %s added no marginal coverage", op)
		}
		prev = len(covered)
	}
}

func TestQagviewDiversityConstraint(t *testing.T) {
	db := baseDB(t)
	ops, err := Qagview{}.recommend(engineOf(t, db), query.Description{}, allRecords(db), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("Qagview returned nothing")
	}
	// All clusters must be drill-downs and pairwise differ in ≥ D
	// attribute-values.
	for i := range ops {
		if ops[i].Kind != query.Filter {
			t.Errorf("Qagview produced %v; it can only drill down", ops[i].Kind)
		}
		for j := i + 1; j < len(ops); j++ {
			if d := querytest.EditDistance(ops[i].Target, ops[j].Target); d < 2 {
				t.Errorf("clusters %d and %d differ in %d pairs, want ≥ 2", i, j, d)
			}
		}
	}
}

func TestQagviewCoverage(t *testing.T) {
	db := baseDB(t)
	qe := engineOf(t, db)
	recs := allRecords(db)
	ops, err := Qagview{}.recommend(qe, query.Description{}, recs, 6)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int32]bool{}
	for _, op := range ops {
		g, err := qe.Materialize(op.Target)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range g.Records {
			covered[r] = true
		}
	}
	// With 6 clusters of top-covering patterns, coverage should reach the
	// |g_R|/2 threshold on this data.
	if len(covered) < len(recs)/2 {
		t.Errorf("summary covers %d of %d records, want ≥ half", len(covered), len(recs))
	}
}

func TestPatternDistance(t *testing.T) {
	if d := patternDistance([]int32{1, 2}, []int32{1, 2}); d != 0 {
		t.Errorf("identical patterns distance = %d", d)
	}
	if d := patternDistance([]int32{1, 2}, []int32{1, 3}); d != 2 {
		t.Errorf("one swap distance = %d, want 2", d)
	}
	if d := patternDistance([]int32{1}, []int32{1, 2}); d != 1 {
		t.Errorf("superset distance = %d, want 1", d)
	}
	if d := patternDistance(nil, []int32{5}); d != 1 {
		t.Errorf("empty vs single = %d, want 1", d)
	}
}

func TestEmptyGroupBehaviour(t *testing.T) {
	qe := engineOf(t, baseDB(t))
	if ops, err := (SmartDrillDown{}).recommend(qe, query.Description{}, nil, 3); err != nil || len(ops) != 0 {
		t.Errorf("SDD on empty group: ops=%v err=%v", ops, err)
	}
	if ops, err := (Qagview{}).recommend(qe, query.Description{}, nil, 3); err != nil || len(ops) != 0 {
		t.Errorf("Qagview on empty group: ops=%v err=%v", ops, err)
	}
}
