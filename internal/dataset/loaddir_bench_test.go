package dataset_test

import (
	"runtime"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/gen"
)

// BenchmarkLoadDir loads the Yelp-shaped database at paper size (150 318
// reviewers, 93 items, 200 500 ratings) from its CSV directory — what every
// binary started with -data and every round of bench/ does first. Beside
// ns/op it reports retained-MB, the live heap one loaded database holds
// after a collection: the number a table that pins its CSV lines inflates.
//
//	go test ./internal/dataset -run '^$' -bench LoadDir -benchmem
func BenchmarkLoadDir(b *testing.B) {
	db, err := gen.Yelp(gen.Config{})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := dataset.SaveDir(db, dir); err != nil {
		b.Fatal(err)
	}
	kinds := map[string]dataset.Kind{"cuisine": dataset.MultiValued}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	db = nil
	before := heap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if db, err = dataset.LoadDir(dir, "yelp", kinds); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(int64(heap())-int64(before))/(1<<20), "retained-MB")
	runtime.KeepAlive(db)
}
