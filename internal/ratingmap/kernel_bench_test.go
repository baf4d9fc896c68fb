package ratingmap

// Microbenchmarks for Accumulator.Update by dataset shape and batch length,
// with each side's two strategies forced next to the one Update picks: the
// arms EXPERIMENTS.md quotes (BenchmarkUpdateKernel) and the ones that fix
// foldCrossover in kernel.go (BenchmarkFoldCrossover).
//
//	go test ./internal/ratingmap -run '^$' -bench 'UpdateKernel|FoldCrossover' -benchmem
//
// The end-to-end step costs are the benchmark's (bench/,
// ratingmap.update_ns_per_record).

import (
	"fmt"
	"sync"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/query"
)

// benchShape is one generated database with every candidate the engine
// would register over it: all attributes of both sides on all dimensions.
type benchShape struct {
	name string
	db   *dataset.DB
	keys []Key
}

// benchShapes generates the paper's three dataset shapes (Table 2) — Yelp,
// 93 items under 150 318 reviewers of 1.3 ratings each; MovieLens, 943
// reviewers and 1 682 items under 100 000 ratings on one dimension; Hotels,
// 879 hotels under 35 912 four-dimension ratings — and the 3 000-rating
// demo, once per process: both benchmarks below read the same databases.
var benchShapes = sync.OnceValue(func() []benchShape { return shapesAt(1) })

// shapesAt generates the four shapes at a fraction of their paper size.
func shapesAt(scale float64) []benchShape {
	var shapes []benchShape
	for _, g := range []struct {
		name string
		gen  func(gen.Config) (*dataset.DB, error)
	}{{"yelp", gen.Yelp}, {"movielens", gen.Movielens}, {"hotels", gen.Hotels}, {"demo", gen.Demo}} {
		db, err := g.gen(gen.Config{Scale: scale})
		if err != nil {
			panic(err) // the generators fail on a bad Config only
		}
		sh := benchShape{name: g.name, db: db}
		for _, s := range []struct {
			side query.Side
			t    *dataset.EntityTable
		}{{query.ReviewerSide, db.Reviewers}, {query.ItemSide, db.Items}} {
			for a := 0; a < s.t.Schema.Len(); a++ {
				for d := range db.Ratings.Dimensions {
					sh.keys = append(sh.keys, Key{Side: s.side, Attr: s.t.Schema.At(a).Name, Dim: d})
				}
			}
		}
		shapes = append(shapes, sh)
	}
	return shapes
}

// batch is a strided sample of n of the shape's records — it reaches every
// part of the rating table, as a selection's records do.
func (sh benchShape) batch(n int) []int32 {
	records := make([]int32, n)
	for i := range records {
		records[i] = int32(i * sh.db.Ratings.Len() / n)
	}
	return records
}

// run times scan on one accumulator of all the shape's keys, reporting
// ns/record beside ns/op.
func (sh benchShape) run(b *testing.B, name string, n int, scan func(*Accumulator)) {
	b.Run(name, func(b *testing.B) {
		acc := (&Builder{DB: sh.db}).NewAccumulator(query.Description{}, sh.keys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scan(acc)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
	})
}

// BenchmarkUpdateKernel scans batches of a recommendation candidate's
// length (50), a phase's (2 000) and a whole large group's (50 000).
// update is Update as shipped; reviewers/… and items/… scan one side only,
// with the named strategy forced — tiled is the direct strategy as shipped
// (scanSide), perkey the same loop without the tile; reference is the
// row-oriented oracle.
func BenchmarkUpdateKernel(b *testing.B) {
	for _, sh := range benchShapes() {
		for _, n := range []int{50, 2_000, 50_000} {
			if n > sh.db.Ratings.Len() {
				continue
			}
			records := sh.batch(n)
			prefix := fmt.Sprintf("%s/batch=%d/", sh.name, n)
			sh.run(b, prefix+"update", n, func(a *Accumulator) { a.Update(records) })
			sh.run(b, prefix+"reference", n, func(a *Accumulator) { a.updateReference(records) })
			for _, t := range []*dataset.EntityTable{sh.db.Reviewers, sh.db.Items} {
				sh.run(b, prefix+t.Name+"/tiled", n, func(a *Accumulator) { a.scanSide(t, records) })
				sh.run(b, prefix+t.Name+"/perkey", n, func(a *Accumulator) { a.scanSidePerKey(t, records) })
				sh.run(b, prefix+t.Name+"/fold", n, func(a *Accumulator) { a.foldSide(t, records) })
			}
		}
	}
}

// BenchmarkFoldCrossover is the measurement behind foldCrossover: each
// side's two strategies on batches of half, one and two times the side's
// entity block (rows × 6 cells on these scale-5 datasets). A side whose
// block outgrows the rating table — Yelp's reviewers — has no such batch.
func BenchmarkFoldCrossover(b *testing.B) {
	for _, sh := range benchShapes() {
		for _, t := range []*dataset.EntityTable{sh.db.Reviewers, sh.db.Items} {
			cells := t.Len() * 6
			for _, n := range []int{cells / 2, cells, 2 * cells} {
				if n > sh.db.Ratings.Len() {
					continue
				}
				records := sh.batch(n)
				prefix := fmt.Sprintf("%s/%s/cells=%d/batch=%d/", sh.name, t.Name, cells, n)
				sh.run(b, prefix+"direct", n, func(a *Accumulator) { a.scanSide(t, records) })
				sh.run(b, prefix+"fold", n, func(a *Accumulator) { a.foldSide(t, records) })
			}
		}
	}
}
