package bandit

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSARValidation(t *testing.T) {
	if _, err := NewSAR([]int{1, 2}, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := NewSAR([]int{1, 1}, 1); err == nil {
		t.Fatal("duplicate arm ids must be rejected")
	}
}

func TestSARDegenerateAllAccepted(t *testing.T) {
	s, err := NewSAR([]int{1, 2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("k ≥ arms must be immediately done")
	}
	if got := len(s.Accepted()); got != 3 {
		t.Fatalf("accepted = %d, want 3", got)
	}
}

func TestSARObserve(t *testing.T) {
	s, _ := NewSAR([]int{0, 1}, 1)
	if err := s.Observe(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(0, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(99, 1); err == nil {
		t.Fatal("unknown arm must error")
	}
	arm := s.byID[0]
	if arm.pulls != 2 || arm.mean != 0.75 {
		t.Fatalf("pulls=%d mean=%v", arm.pulls, arm.mean)
	}
}

func TestSARAcceptRejectRule(t *testing.T) {
	// Means: 1.0, 0.5, 0.45, 0.4; k=2. Δ1 = 1.0−0.45 = 0.55 (top vs k+1-th);
	// Δ2 = 0.5−0.4 = 0.1 (k-th vs bottom). Δ1 > Δ2 → accept the top arm.
	s, _ := NewSAR([]int{0, 1, 2, 3}, 2)
	for id, m := range map[int]float64{0: 1.0, 1: 0.5, 2: 0.45, 3: 0.4} {
		s.SetMean(id, m)
	}
	id, st, ok := s.Step()
	if !ok || st != Accepted || id != 0 {
		t.Fatalf("got id=%d st=%v ok=%v, want accept arm 0", id, st, ok)
	}
	// Now means 0.5, 0.45, 0.4 with 1 slot: Δ1 = 0.5−0.45 = 0.05;
	// Δ2 = 0.5−0.4 = 0.1 → reject the bottom arm (3).
	id, st, ok = s.Step()
	if !ok || st != Rejected || id != 3 {
		t.Fatalf("got id=%d st=%v ok=%v, want reject arm 3", id, st, ok)
	}
}

func TestSARFindsTopArms(t *testing.T) {
	// With well-separated noisy rewards, SAR must identify the true top-k.
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n, k = 10, 3
		ids := make([]int, n)
		means := make([]float64, n)
		for i := range ids {
			ids[i] = i
			means[i] = float64(i) / n // arm i has true mean i/10
		}
		s, err := NewSAR(ids, k)
		if err != nil {
			return false
		}
		for !s.Done() {
			for _, id := range s.Active() {
				// Tight noise keeps the ordering observable.
				s.Observe(id, means[id]+r.NormFloat64()*0.001)
			}
			s.Step()
		}
		accepted := s.Finish()
		if len(accepted) != k {
			return false
		}
		want := map[int]bool{7: true, 8: true, 9: true}
		for _, id := range accepted {
			if !want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSARFinishFillsSlots(t *testing.T) {
	s, _ := NewSAR([]int{0, 1, 2, 3, 4}, 2)
	for id, m := range map[int]float64{0: 0.9, 1: 0.8, 2: 0.3, 3: 0.2, 4: 0.1} {
		s.SetMean(id, m)
	}
	accepted := s.Finish()
	if len(accepted) != 2 {
		t.Fatalf("accepted %v", accepted)
	}
	got := map[int]bool{}
	for _, id := range accepted {
		got[id] = true
	}
	if !got[0] || !got[1] {
		t.Fatalf("Finish must keep the best means, got %v", accepted)
	}
	if !s.Done() {
		t.Fatal("Finish must complete the selection")
	}
	if len(s.Active()) != 0 {
		t.Fatal("no arm may stay active after Finish")
	}
}

func TestSARObserveSealedArmIgnored(t *testing.T) {
	s, _ := NewSAR([]int{0, 1, 2}, 1)
	s.SetMean(0, 0.9)
	s.SetMean(1, 0.2)
	s.SetMean(2, 0.1)
	for !s.Done() {
		if _, _, ok := s.Step(); !ok {
			break
		}
	}
	accepted := s.Accepted()
	if len(accepted) != 1 {
		t.Fatalf("accepted %v", accepted)
	}
	before := s.byID[accepted[0]].mean
	s.Observe(accepted[0], 0.0) // must be ignored
	if s.byID[accepted[0]].mean != before {
		t.Fatal("observations on sealed arms must be ignored")
	}
}

func TestStateString(t *testing.T) {
	if Active.String() != "active" || Accepted.String() != "accepted" || Rejected.String() != "rejected" {
		t.Error("state strings wrong")
	}
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
