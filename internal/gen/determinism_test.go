package gen

import (
	"testing"

	"subdex/internal/dataset"
	"subdex/internal/dataset/datasettest"
)

// pinnedDigests fixes the FNV-1a content digest of every generator at its
// default seed and the scale the golden-trace regression suite uses
// (internal/workload/testdata/golden). A failure here means math/rand,
// float handling, or a generator changed underneath us — the drift would
// otherwise surface as inscrutable golden-trace diffs one layer up, or
// worse, silently change every experiment artifact. If the change is
// intentional (a deliberate generator edit), update the constant AND
// refresh the golden traces:
//
//	go test ./internal/gen -run TestGeneratorDigestPinned -v
//	go test ./internal/workload -run TestGolden -update
var pinnedDigests = []struct {
	name   string
	gen    func(Config) (*dataset.DB, error)
	cfg    Config
	digest string
}{
	{"Demo", Demo, Config{Seed: 1, Scale: 1}, "fnv1a:ad0a4b4f4cb628be"},
	{"Movielens", Movielens, Config{Seed: 1, Scale: 0.02}, "fnv1a:cafc74ccec452992"},
	{"Yelp", Yelp, Config{Seed: 1, Scale: 0.02}, "fnv1a:991fa1c9c9ffcc40"},
	{"Hotels", Hotels, Config{Seed: 1, Scale: 0.02}, "fnv1a:4689b3334945d188"},
}

func TestGeneratorDigestPinned(t *testing.T) {
	for _, tc := range pinnedDigests {
		db, err := tc.gen(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := datasettest.Digest(db)
		t.Logf("%s(seed=%d, scale=%g) = %s", tc.name, tc.cfg.Seed, tc.cfg.Scale, got)
		if got != tc.digest {
			t.Errorf("%s dataset digest drifted:\n  got  %s\n  want %s\n(platform/toolchain drift or an intentional generator change; see comment above)",
				tc.name, got, tc.digest)
		}
	}
}

// TestDigestDiscriminates sanity-checks the digest itself: different seeds
// must fingerprint differently, identical configs identically.
func TestDigestDiscriminates(t *testing.T) {
	a, err := Demo(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Demo(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Demo(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if datasettest.Digest(a) != datasettest.Digest(b) {
		t.Error("same config must digest identically")
	}
	if datasettest.Digest(a) == datasettest.Digest(c) {
		t.Error("different seeds must digest differently")
	}
}

// TestDemoShape pins the demo generator's schema the way TestSchemaShapes
// pins the paper-shaped ones.
func TestDemoShape(t *testing.T) {
	db, err := Demo(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.NumAttributes != 6 {
		t.Errorf("attributes = %d, want 6", s.NumAttributes)
	}
	if s.NumDimensions != 2 {
		t.Errorf("dimensions = %d, want 2", s.NumDimensions)
	}
	if !db.Frozen() {
		t.Error("Demo must freeze")
	}
	if s.NumRatings < 300 {
		t.Errorf("ratings = %d, want a usable demo corpus", s.NumRatings)
	}
}
