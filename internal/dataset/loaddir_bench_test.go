package dataset_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/gen"
)

// savedShape is one generated shape on disk: its CSV directory and the
// kinds LoadDir needs for it.
type savedShape struct {
	dir   string
	kinds map[string]dataset.Kind
}

// shapes holds every shape a benchmark has asked for, under shapesDir,
// which TestMain removes. Benchmarks run one at a time, so neither needs a
// lock.
var (
	shapes    = map[string]savedShape{}
	shapesDir string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if shapesDir != "" {
		os.RemoveAll(shapesDir)
	}
	os.Exit(code)
}

// saveShape returns gen.ByName(name) at paper size saved as CSV files,
// generating and writing it once per test binary.
func saveShape(b *testing.B, name string) savedShape {
	b.Helper()
	if s, ok := shapes[name]; ok {
		return s
	}
	if shapesDir == "" {
		dir, err := os.MkdirTemp("", "loaddir-bench-")
		if err != nil {
			b.Fatal(err)
		}
		shapesDir = dir
	}
	db, err := gen.ByName(name, gen.Config{})
	if err != nil {
		b.Fatal(err)
	}
	s := savedShape{dir: filepath.Join(shapesDir, name), kinds: multiValued(db)}
	if err := dataset.SaveDir(db, s.dir); err != nil {
		b.Fatal(err)
	}
	shapes[name] = s
	return s
}

// BenchmarkLoadDir loads each shape at paper size from its CSV directory —
// what every binary started with -data and every round of bench/ does
// first; Yelp is 150 318 reviewers, 93 items and 200 500 ratings. Beside
// ns/op and allocs it reports retained-MB, the live heap one loaded
// database holds after a collection: the number a table that pins its CSV
// lines, or keeps the slack of columns grown by doubling, inflates.
//
//	go test ./internal/dataset -run '^$' -bench LoadDir -benchmem
func BenchmarkLoadDir(b *testing.B) {
	for _, name := range []string{"yelp", "movielens", "hotels"} {
		b.Run(name, func(b *testing.B) {
			s := saveShape(b, name)
			heap := func() uint64 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return m.HeapAlloc
			}
			before := heap()
			var db *dataset.DB
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if db, err = dataset.LoadDir(s.dir, name, s.kinds); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(int64(heap())-int64(before))/(1<<20), "retained-MB")
			runtime.KeepAlive(db)
		})
	}
}
