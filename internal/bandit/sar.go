// Package bandit implements the Successive Accepts and Rejects (SAR)
// multi-armed bandit strategy of Bubeck, Wang and Viswanathan [13] for the
// multiple-identifications problem: finding the k' arms with the highest
// mean reward under a fixed budget. SeeDB [54] showed the strategy finds the
// highest-utility visualizations w.h.p., and SubDEx reuses it as its MAB
// pruning scheme (§4.2.1): at the end of each phase, arms (rating maps) are
// ranked by mean DW utility; depending on which gap is larger, the top arm
// is accepted into the answer or the bottom arm is rejected.
//
// A SAR holds only live arms, by ascending id — the engine's surviving
// candidates, in candidate order — with a parallel slice of means. A
// rejected arm leaves it, and so does an arm another scheme pruned (Drop),
// so every decision names a live arm. Means change only between phases and
// a decision removes only the top or the bottom arm, so the active arms are
// ranked once after the means or the arms change, and the decisions of a
// phase read both ends of that ranking.
package bandit

import (
	"cmp"
	"fmt"
	"slices"
)

// State is an arm's lifecycle position.
type State int

const (
	// Active arms are still played and considered.
	Active State = iota
	// Accepted arms are guaranteed a slot in the top-k'.
	Accepted
	// Rejected arms are pruned.
	Rejected
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Accepted:
		return "accepted"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// SAR runs Successive Accepts and Rejects over its live arms.
type SAR struct {
	ids       []int     // the live arms, ascending
	means     []float64 // means[i] is arm ids[i]'s mean
	accepted  []bool    // accepted[i]: arm ids[i] is accepted
	nAccepted int
	k         int // slots to fill
	// ranked[lo:hi] are the active arms by descending mean, ties by
	// ascending id; stale says the means or the arms changed since they
	// were ranked. The array is made once, at its largest.
	ranked []arm
	lo, hi int
	stale  bool
}

// arm is one active arm as ranked.
type arm struct {
	id   int
	mean float64
}

// NewSAR creates a selector for the top-k arms among ids, which must
// ascend: it is the order of SetMeans' means.
func NewSAR(ids []int, k int) (*SAR, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bandit: k must be positive, got %d", k)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return nil, fmt.Errorf("bandit: arm ids must ascend without repeats, got %d after %d", ids[i], ids[i-1])
		}
	}
	n := len(ids)
	s := &SAR{
		ids:      slices.Clone(ids),
		means:    make([]float64, n),
		accepted: make([]bool, n),
		k:        k,
		ranked:   make([]arm, n),
		stale:    true,
	}
	if k >= n {
		// Degenerate: everything is accepted immediately.
		for i := range s.accepted {
			s.accepted[i] = true
		}
		s.nAccepted = n
	}
	return s, nil
}

// SetMeans sets every live arm's mean: means[i] is the mean of the i-th
// live arm by ascending id. The engine calls it once a phase, with the
// rating maps' utility means as the phase accumulator estimates them.
func (s *SAR) SetMeans(means []float64) {
	if len(means) != len(s.ids) {
		panic(fmt.Sprintf("bandit: %d means for %d live arms", len(means), len(s.ids)))
	}
	copy(s.means, means)
	s.stale = true
}

// Drop removes arm id from the selection — the engine's CI pruning dropped
// the candidate — and reports whether it was live.
func (s *SAR) Drop(id int) bool {
	i, ok := slices.BinarySearch(s.ids, id)
	if !ok {
		return false
	}
	if s.accepted[i] {
		s.nAccepted--
	} else {
		s.stale = true
	}
	s.remove(i)
	return true
}

func (s *SAR) remove(i int) {
	s.ids = slices.Delete(s.ids, i, i+1)
	s.means = slices.Delete(s.means, i, i+1)
	s.accepted = slices.Delete(s.accepted, i, i+1)
}

// IsAccepted reports whether arm id is live and accepted.
func (s *SAR) IsAccepted(id int) bool {
	i, ok := slices.BinarySearch(s.ids, id)
	return ok && s.accepted[i]
}

// RemainingSlots returns how many top-k slots are still unfilled.
func (s *SAR) RemainingSlots() int { return s.k - s.nAccepted }

// Done reports whether the selection is complete: all slots filled or no
// active arms remain.
func (s *SAR) Done() bool {
	return s.nAccepted >= s.k || s.nAccepted == len(s.ids)
}

// Step performs one accept-or-reject decision over the active arms, the
// per-phase move of the paper: rank active arms by mean; let Δ₁ be the gap
// between the highest mean and the (slots+1)-th mean, and Δ₂ the gap between
// the slots-th mean and the lowest mean. If Δ₁ > Δ₂ the top arm is accepted,
// otherwise the bottom arm is rejected and leaves the SAR. When the active
// arms all fit in the open slots, they are all accepted at once and the
// best of them is named. Ties in mean rank by ascending id. Returns the
// decided arm id and its new state, or ok=false once the selection is done.
func (s *SAR) Step() (id int, st State, ok bool) {
	if s.Done() {
		return 0, Active, false
	}
	if s.stale {
		s.rank()
	}
	active := s.ranked[s.lo:s.hi]
	slots := s.RemainingSlots()
	if len(active) <= slots {
		// Everyone left fits: accept them all (top gap is infinite).
		for _, a := range active {
			s.accept(a.id)
		}
		s.lo = s.hi
		return active[0].id, Accepted, true
	}
	delta1 := active[0].mean - active[slots].mean
	delta2 := active[slots-1].mean - active[len(active)-1].mean
	if delta1 > delta2 {
		s.lo++
		s.accept(active[0].id)
		return active[0].id, Accepted, true
	}
	s.hi--
	last := active[len(active)-1].id
	i, _ := slices.BinarySearch(s.ids, last)
	s.remove(i)
	return last, Rejected, true
}

func (s *SAR) accept(id int) {
	i, _ := slices.BinarySearch(s.ids, id)
	s.accepted[i] = true
	s.nAccepted++
}

// rank orders the active arms by descending mean, ties by ascending id.
func (s *SAR) rank() {
	r := s.ranked[:0]
	for i, id := range s.ids {
		if !s.accepted[i] {
			r = append(r, arm{id: id, mean: s.means[i]})
		}
	}
	slices.SortFunc(r, func(a, b arm) int {
		if c := cmp.Compare(b.mean, a.mean); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	s.lo, s.hi, s.stale = 0, len(r), false
}
