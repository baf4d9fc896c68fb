package query

import "math/bits"

// Bitset is a fixed-size set of row ids used to materialize reviewer and
// item groups cheaply. Intersection of per-selector bitsets implements
// conjunctive group descriptions.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset over the universe {0..n-1}.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// FullBitset returns a bitset with all n elements set.
func FullBitset(n int) *Bitset {
	b := NewBitset(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
	return b
}

// trim clears bits beyond n-1 in the last word.
func (b *Bitset) trim() {
	if rem := b.n % 64; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << uint(rem)) - 1
	}
}

// Set adds element i.
func (b *Bitset) Set(i int) { b.words[i/64] |= 1 << uint(i%64) }

// Count returns the number of elements.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IntersectWith removes from b every element not in o.
func (b *Bitset) IntersectWith(o *Bitset) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] &= o.words[i]
		} else {
			b.words[i] = 0
		}
	}
}

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Equal reports whether two bitsets contain the same elements.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}
