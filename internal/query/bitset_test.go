package query

// Direct property tests for Bitset against an obviously-correct map-set
// reference model: AND/OR/iteration semantics get their own randomized
// suite — including word-boundary universes and mixed-universe
// intersect/union, whose trim behavior is easy to break.

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// model is the reference set implementation.
type model map[int]bool

func (m model) elements() []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// assertMatches checks every observable accessor of b against m.
func assertMatches(t *testing.T, b *Bitset, m model, n int) {
	t.Helper()
	if b.Count() != len(m) {
		t.Fatalf("Count() = %d, model has %d", b.Count(), len(m))
	}
	for i := 0; i < n; i++ {
		if b.Has(i) != m[i] {
			t.Fatalf("Has(%d) = %v, model %v", i, b.Has(i), m[i])
		}
	}
	want := m.elements()
	got := b.Elements(nil)
	if len(got) != len(want) {
		t.Fatalf("Elements len %d, model %d", len(got), len(want))
	}
	for i := range got {
		if int(got[i]) != want[i] {
			t.Fatalf("Elements[%d] = %d, model %d", i, got[i], want[i])
		}
	}
}

// universes crosses word boundaries: 0, sub-word, exact words, word+1.
var universes = []int{0, 1, 5, 63, 64, 65, 127, 128, 200}

// TestBitsetSetClearHas drives random Set/Clear sequences against the model.
func TestBitsetSetClearHas(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range universes {
		b := NewBitset(n)
		m := model{}
		assertMatches(t, b, m, n)
		for op := 0; op < 30*n+10; op++ {
			if n == 0 {
				break
			}
			i := rng.Intn(n)
			if rng.Intn(3) == 0 {
				b.Clear(i)
				delete(m, i)
			} else {
				b.Set(i)
				m[i] = true
			}
		}
		assertMatches(t, b, m, n)
	}
}

// TestBitsetFull: FullBitset must contain exactly {0..n-1} — the trim of
// the final partial word is the classic off-by-one site.
func TestBitsetFull(t *testing.T) {
	for _, n := range universes {
		b := FullBitset(n)
		m := model{}
		for i := 0; i < n; i++ {
			m[i] = true
		}
		assertMatches(t, b, m, n)
	}
}

// randomPair builds a random bitset + model over universe n.
func randomPair(rng *rand.Rand, n int) (*Bitset, model) {
	b := NewBitset(n)
	m := model{}
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
			m[i] = true
		}
	}
	return b, m
}

// TestBitsetIntersectUnion checks AND/OR against set algebra on the model,
// including mixed universes: elements of the other operand outside b's
// universe must never leak in.
func TestBitsetIntersectUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range universes {
		for _, on := range universes {
			b, bm := randomPair(rng, n)
			o, om := randomPair(rng, on)
			oSnapshot := o.Clone()

			and := b.Clone()
			and.IntersectWith(o)
			andM := model{}
			for i := range bm {
				if om[i] {
					andM[i] = true
				}
			}
			assertMatches(t, and, andM, n)

			or := b.Clone()
			or.UnionWith(o)
			orM := model{}
			for i := range bm {
				orM[i] = true
			}
			for i := range om {
				if i < n {
					orM[i] = true
				}
			}
			assertMatches(t, or, orM, n)

			// Operands must be untouched.
			assertMatches(t, b, bm, n)
			if !o.Equal(oSnapshot) {
				t.Fatalf("n=%d on=%d: operand mutated by IntersectWith/UnionWith", n, on)
			}
		}
	}
}

// TestBitsetCloneEqual: clones are independent and Equal tracks content
// and universe.
func TestBitsetCloneEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b, m := randomPair(rng, 130)
	c := b.Clone()
	if !b.Equal(c) || !c.Equal(b) {
		t.Fatal("clone not Equal to original")
	}
	c.Set(7)
	c.Clear(8)
	assertMatches(t, b, m, 130) // original unchanged
	if m[7] && !m[8] && b.Equal(c) {
		t.Fatal("Equal true after divergence")
	}
	if (&Bitset{words: nil, n: 0}).Equal(NewBitset(64)) {
		t.Fatal("different universes must not be Equal")
	}
}

// TestBitsetUnionIdempotentAndCommutative: A∪A = A; A∪B = B∪A on a shared
// universe; A∩B ⊆ A∪B.
func TestBitsetUnionIdempotentAndCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := universes[rng.Intn(len(universes))]
		a, _ := randomPair(rng, n)
		b, _ := randomPair(rng, n)

		self := a.Clone()
		self.UnionWith(a)
		if !self.Equal(a) {
			t.Fatal("A∪A != A")
		}
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		if !ab.Equal(ba) {
			t.Fatal("A∪B != B∪A")
		}
		and := a.Clone()
		and.IntersectWith(b)
		sup := and.Clone()
		sup.UnionWith(ab)
		if !sup.Equal(ab) {
			t.Fatal("A∩B not a subset of A∪B")
		}
	}
}

// Clear removes element i.
func (b *Bitset) Clear(i int) { b.words[i/64] &^= 1 << uint(i%64) }

// Has reports membership of i.
func (b *Bitset) Has(i int) bool { return b.words[i/64]&(1<<uint(i%64)) != 0 }

// UnionWith adds to b every element of o.
func (b *Bitset) UnionWith(o *Bitset) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] |= o.words[i]
		}
	}
	b.trim()
}

// Elements appends all members in ascending order to dst and returns it.
func (b *Bitset) Elements(dst []int32) []int32 {
	for wi, w := range b.words {
		base := wi * 64
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, int32(base+tz))
			w &= w - 1
		}
	}
	return dst
}
