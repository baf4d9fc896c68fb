// Package bandit implements the Successive Accepts and Rejects (SAR)
// multi-armed bandit strategy of Bubeck, Wang and Viswanathan [13] for the
// multiple-identifications problem: finding the k' arms with the highest
// mean reward under a fixed budget. SeeDB [54] showed the strategy finds the
// highest-utility visualizations w.h.p., and SubDEx reuses it as its MAB
// pruning scheme (§4.2.1): at the end of each phase, arms (rating maps) are
// ranked by mean DW utility; depending on which gap is larger, the top arm
// is accepted into the answer or the bottom arm is rejected.
package bandit

import (
	"fmt"
	"sort"
)

// Arm is one candidate under selection, tracked by its running mean reward.
type Arm struct {
	ID    int
	mean  float64
	pulls int
	state State
}

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

// Mean returns the arm's running mean reward.
func (a *Arm) Mean() float64 { return a.mean }

// SAR runs Successive Accepts and Rejects over a fixed arm set.
type SAR struct {
	arms     []*Arm
	byID     map[int]*Arm
	k        int // slots to fill
	accepted int
}

// NewSAR creates a selector for the top-k arms among the given ids.
func NewSAR(ids []int, k int) (*SAR, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bandit: k must be positive, got %d", k)
	}
	s := &SAR{k: k, byID: make(map[int]*Arm, len(ids))}
	for _, id := range ids {
		if _, dup := s.byID[id]; dup {
			return nil, fmt.Errorf("bandit: duplicate arm id %d", id)
		}
		a := &Arm{ID: id}
		s.arms = append(s.arms, a)
		s.byID[id] = a
	}
	if k >= len(ids) {
		// Degenerate: everything is accepted immediately.
		for _, a := range s.arms {
			a.state = Accepted
		}
		s.accepted = len(ids)
	}
	return s, nil
}

// Observe feeds a reward observation for an arm. Observations on accepted
// or rejected arms are ignored (their fate is sealed).
func (s *SAR) Observe(id int, reward float64) error {
	a, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("bandit: unknown arm %d", id)
	}
	if a.state != Active {
		return nil
	}
	a.pulls++
	a.mean += (reward - a.mean) / float64(a.pulls)
	return nil
}

// SetMean overrides an arm's running mean; the engine uses this because
// rating-map utility means are maintained by the phase accumulator rather
// than per-pull.
func (s *SAR) SetMean(id int, mean float64) error {
	a, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("bandit: unknown arm %d", id)
	}
	if a.state == Active {
		a.mean = mean
		a.pulls++
	}
	return nil
}

// Active returns the ids of arms still in play.
func (s *SAR) Active() []int {
	var out []int
	for _, a := range s.arms {
		if a.state == Active {
			out = append(out, a.ID)
		}
	}
	return out
}

// Accepted returns the ids of arms accepted so far.
func (s *SAR) Accepted() []int {
	var out []int
	for _, a := range s.arms {
		if a.state == Accepted {
			out = append(out, a.ID)
		}
	}
	return out
}

// RemainingSlots returns how many top-k slots are still unfilled.
func (s *SAR) RemainingSlots() int { return s.k - s.accepted }

// Done reports whether the selection is complete: all slots filled or no
// active arms remain.
func (s *SAR) Done() bool {
	if s.accepted >= s.k {
		return true
	}
	for _, a := range s.arms {
		if a.state == Active {
			return false
		}
	}
	return true
}

// Step performs one accept-or-reject decision over the active arms, the
// per-phase move of the paper: rank active arms by mean; let Δ₁ be the gap
// between the highest mean and the (slots+1)-th mean, and Δ₂ the gap between
// the slots-th mean and the lowest mean. If Δ₁ > Δ₂ the top arm is accepted,
// otherwise the bottom arm is rejected. Returns the decided arm id and its
// new state, or ok=false if no decision is possible (fewer than 2 active
// arms or selection already done).
func (s *SAR) Step() (id int, st State, ok bool) {
	if s.Done() {
		return 0, Active, false
	}
	active := make([]*Arm, 0, len(s.arms))
	for _, a := range s.arms {
		if a.state == Active {
			active = append(active, a)
		}
	}
	slots := s.RemainingSlots()
	if len(active) <= slots {
		// Everyone left fits: accept them all (top gap is infinite).
		for _, a := range active {
			a.state = Accepted
			s.accepted++
		}
		return active[0].ID, Accepted, true
	}
	if len(active) < 2 {
		return 0, Active, false
	}
	sort.Slice(active, func(i, j int) bool { return active[i].mean > active[j].mean })
	delta1 := active[0].mean - active[slots].mean
	delta2 := active[slots-1].mean - active[len(active)-1].mean
	if delta1 > delta2 {
		active[0].state = Accepted
		s.accepted++
		return active[0].ID, Accepted, true
	}
	last := active[len(active)-1]
	last.state = Rejected
	return last.ID, Rejected, true
}

// Finish ends the selection by accepting the best remaining active arms into
// the unfilled slots (used after the final phase when exact means are
// known). It returns the full accepted set.
func (s *SAR) Finish() []int {
	var active []*Arm
	for _, a := range s.arms {
		if a.state == Active {
			active = append(active, a)
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i].mean > active[j].mean })
	for _, a := range active {
		if s.accepted >= s.k {
			a.state = Rejected
			continue
		}
		a.state = Accepted
		s.accepted++
	}
	return s.Accepted()
}
