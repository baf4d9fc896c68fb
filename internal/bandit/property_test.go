package bandit

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPropertySARNoiselessTopKPreserved: on noiseless inputs — every arm's
// running mean set to its true value before each decision — the SAR
// accept/reject rule must never eliminate a true top-k arm, and driving
// Step to completion must accept exactly the true top-k set. This is the
// safety property engine pruning relies on: pruning can only be wrong when
// the estimates are, never by construction.
func TestPropertySARNoiselessTopKPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(30)
		k := 1 + rng.Intn(n)
		ids := make([]int, n)
		means := make(map[int]float64, n)
		used := map[int]bool{}
		for i := range ids {
			// Sparse ids with distinct means: ties make "the" top-k ambiguous
			// and are exercised separately below.
			id := rng.Intn(1000)
			for used[id] {
				id = rng.Intn(1000)
			}
			used[id] = true
			ids[i] = id
			means[id] = float64(i) + rng.Float64()/2
		}
		sort.Ints(ids) // a SAR's arms ascend; the means, drawn by i, do not

		want := append([]int(nil), ids...)
		sort.Slice(want, func(i, j int) bool { return means[want[i]] > means[want[j]] })
		want = want[:k]
		top := make(map[int]bool, k)
		for _, id := range want {
			top[id] = true
		}

		s, err := NewSAR(ids, k)
		if err != nil {
			t.Fatal(err)
		}
		for !s.Done() {
			setMeans(s, func(id int) float64 { return means[id] })
			id, st, ok := s.Step()
			if !ok {
				break
			}
			if st == Rejected && top[id] {
				t.Fatalf("n=%d k=%d: rejected true top-k arm %d (mean %g)", n, k, id, means[id])
			}
			if st == Accepted && !top[id] {
				// The batch-accept path may seal several arms at once; verify
				// none of the accepted set is outside the true top-k.
				for _, a := range acceptedIDs(s) {
					if !top[a] {
						t.Fatalf("n=%d k=%d: accepted non-top arm %d (mean %g)", n, k, a, means[a])
					}
				}
			}
		}
		got := finish(s)
		if len(got) != k {
			t.Fatalf("n=%d k=%d: accepted %d arms", n, k, len(got))
		}
		for _, id := range got {
			if !top[id] {
				t.Fatalf("n=%d k=%d: final set contains non-top arm %d", n, k, id)
			}
		}
	}
}

// TestPropertySARTiesStillFillK: with all means identical there is no
// "true" top-k, but the selection must still terminate with exactly k
// accepted arms and never loop.
func TestPropertySARTiesStillFillK(t *testing.T) {
	for _, n := range []int{2, 3, 7, 20} {
		for k := 1; k <= n; k++ {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			s, err := NewSAR(ids, k)
			if err != nil {
				t.Fatal(err)
			}
			for steps := 0; !s.Done(); steps++ {
				if steps > 10*n {
					t.Fatalf("n=%d k=%d: SAR did not terminate", n, k)
				}
				setMeans(s, func(int) float64 { return 0.5 })
				if _, _, ok := s.Step(); !ok {
					break
				}
			}
			if got := finish(s); len(got) != k {
				t.Fatalf("n=%d k=%d: accepted %d", n, k, len(got))
			}
		}
	}
}
