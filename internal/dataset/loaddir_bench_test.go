package dataset_test

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// generating and writing it once per test binary. A name with the suffix
// "_quoted" is that shape's directory rewritten with every cell quoted.
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
	s := savedShape{dir: filepath.Join(shapesDir, name)}
	if plain, ok := strings.CutSuffix(name, "_quoted"); ok {
		from := saveShape(b, plain)
		s.kinds = from.kinds
		if err := quoteDir(from.dir, s.dir); err != nil {
			b.Fatal(err)
		}
	} else {
		db, err := gen.ByName(name, gen.Config{})
		if err != nil {
			b.Fatal(err)
		}
		s.kinds = multiValued(db)
		if err := dataset.SaveDir(db, s.dir); err != nil {
			b.Fatal(err)
		}
	}
	shapes[name] = s
	return s
}

// quoteDir writes each CSV file of from to to with every cell quoted, so
// that a load of to takes the reader's quoted path on every record.
func quoteDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, file := range []string{"reviewers.csv", "items.csv", "ratings.csv"} {
		in, err := os.ReadFile(filepath.Join(from, file))
		if err != nil {
			return err
		}
		recs, err := csv.NewReader(bytes.NewReader(in)).ReadAll()
		if err != nil {
			return err
		}
		var out bytes.Buffer
		for _, rec := range recs {
			for i, cell := range rec {
				if i > 0 {
					out.WriteByte(',')
				}
				out.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			}
			out.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(to, file), out.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes is the size of the files in dir.
func dirBytes(b *testing.B, dir string) int64 {
	b.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// BenchmarkLoadDir loads each shape at paper size from its CSV directory —
// what every binary started with -data and every round of bench/ does
// first; Yelp is 150 318 reviewers, 93 items and 200 500 ratings. yelp_quoted
// is Yelp with every cell quoted, the reader's slower path. MB/s is over
// the directory's bytes. Beside ns/op and allocs it reports retained-MB,
// the live heap one loaded database holds after a collection: the number a
// table that pins its CSV lines, or keeps the slack of columns grown by
// doubling, inflates.
//
//	go test ./internal/dataset -run '^$' -bench LoadDir -benchmem
func BenchmarkLoadDir(b *testing.B) {
	for _, name := range []string{"yelp", "yelp_quoted", "movielens", "hotels"} {
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
			b.SetBytes(dirBytes(b, s.dir))
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
