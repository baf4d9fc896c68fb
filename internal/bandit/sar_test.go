package bandit

import (
	"math/rand"
	"slices"
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
	if _, err := NewSAR([]int{2, 1}, 1); err == nil {
		t.Fatal("descending arm ids must be rejected")
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
	if got := len(acceptedIDs(s)); got != 3 {
		t.Fatalf("accepted = %d, want 3", got)
	}
}

// TestSARDropLeavesTheSelection: a dropped arm is no longer live — it is
// never decided, its mean no longer counts in the gaps, and the next
// SetMeans does not cover it — while a dropped accepted arm gives its slot
// back.
func TestSARDropLeavesTheSelection(t *testing.T) {
	s, _ := NewSAR([]int{0, 1, 2, 3}, 2)
	s.SetMeans([]float64{1.0, 0.5, 0.45, 0.4})
	if !s.Drop(3) || s.Drop(3) || s.Drop(99) {
		t.Fatal("Drop must report true for a live arm only")
	}
	// Without arm 3: Δ1 = 1.0−0.45 = 0.55, Δ2 = 0.5−0.45 = 0.05 → accept 0.
	if id, st, ok := s.Step(); !ok || st != Accepted || id != 0 {
		t.Fatalf("got id=%d st=%v ok=%v, want accept arm 0", id, st, ok)
	}
	if !s.IsAccepted(0) || s.IsAccepted(1) {
		t.Fatal("IsAccepted must name the accepted arm only")
	}
	if !s.Drop(0) || s.RemainingSlots() != 2 {
		t.Fatalf("dropping an accepted arm must give its slot back, %d slots", s.RemainingSlots())
	}
	if got := live(s); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("live arms %v, want [1 2]", got)
	}
	s.SetMeans([]float64{0.1, 0.2})
	if id, st, ok := s.Step(); !ok || st != Accepted || id != 2 || !s.Done() {
		t.Fatalf("got id=%d st=%v ok=%v: two arms for two slots must all be accepted at once, the best named", id, st, ok)
	}
}

// TestSARObserve: a phase's means land on the live arms in ascending id
// order, and a slice that does not cover exactly the live arms is refused.
func TestSARObserve(t *testing.T) {
	s, _ := NewSAR([]int{4, 7, 9}, 1)
	s.SetMeans([]float64{0.1, 0.9, 0.2})
	if !slices.Equal(s.means, []float64{0.1, 0.9, 0.2}) {
		t.Fatalf("means %v", s.means)
	}
	s.Drop(7)
	defer func() {
		if recover() == nil {
			t.Fatal("means for a dropped arm must be refused")
		}
	}()
	s.SetMeans([]float64{0.1, 0.9, 0.2})
}

func TestSARAcceptRejectRule(t *testing.T) {
	// Means: 1.0, 0.5, 0.45, 0.4; k=2. Δ1 = 1.0−0.45 = 0.55 (top vs k+1-th);
	// Δ2 = 0.5−0.4 = 0.1 (k-th vs bottom). Δ1 > Δ2 → accept the top arm.
	s, _ := NewSAR([]int{0, 1, 2, 3}, 2)
	s.SetMeans([]float64{1.0, 0.5, 0.45, 0.4})
	id, st, ok := s.Step()
	if !ok || st != Accepted || id != 0 {
		t.Fatalf("got id=%d st=%v ok=%v, want accept arm 0", id, st, ok)
	}
	// Now means 0.5, 0.45, 0.4 with 1 slot: Δ1 = 0.5−0.45 = 0.05;
	// Δ2 = 0.5−0.4 = 0.1 → reject the bottom arm (3), which leaves.
	id, st, ok = s.Step()
	if !ok || st != Rejected || id != 3 {
		t.Fatalf("got id=%d st=%v ok=%v, want reject arm 3", id, st, ok)
	}
	if got := live(s); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("live arms %v, want [0 1 2]", got)
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
			// Tight noise keeps the ordering observable.
			setMeans(s, func(id int) float64 { return means[id] + r.NormFloat64()*0.001 })
			s.Step()
		}
		accepted := finish(s)
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
	s.SetMeans([]float64{0.9, 0.8, 0.3, 0.2, 0.1})
	accepted := finish(s)
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
	if len(activeIDs(s)) != 0 {
		t.Fatal("no arm may stay active after Finish")
	}
}

// TestSARObserveSealedArmIgnored: once an arm is accepted, the means later
// phases set for it no longer move it.
func TestSARObserveSealedArmIgnored(t *testing.T) {
	s, _ := NewSAR([]int{0, 1, 2}, 1)
	s.SetMeans([]float64{0.9, 0.2, 0.1})
	for !s.Done() {
		if _, _, ok := s.Step(); !ok {
			break
		}
	}
	accepted := acceptedIDs(s)
	if len(accepted) != 1 {
		t.Fatalf("accepted %v", accepted)
	}
	setMeans(s, func(int) float64 { return 0 })
	if _, _, ok := s.Step(); ok || !s.IsAccepted(accepted[0]) {
		t.Fatal("a mean set on a sealed arm must not reopen the selection")
	}
}

func TestStateString(t *testing.T) {
	if Active.String() != "active" || Accepted.String() != "accepted" || Rejected.String() != "rejected" {
		t.Error("state strings wrong")
	}
}

// TestSARMatchesPerDecisionReference runs FuzzSAR's check over random
// programs, so tier-1 covers what the fuzzer explores.
func TestSARMatchesPerDecisionReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 2000; trial++ {
		prog := make([]byte, rng.Intn(120))
		rng.Read(prog)
		checkAgainstReference(t, prog)
	}
}

// FuzzSAR checks SAR, which ranks once after the means or the arms change,
// against the per-decision rule it replaced (refSAR), on random means with
// ties (a few levels only) and random drops.
func FuzzSAR(f *testing.F) {
	f.Add([]byte{9, 2, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 2, 2, 2, 3, 2, 2, 2, 2, 2})
	f.Add([]byte{30, 5, 0, 7, 7, 7, 7, 1, 2, 3, 2, 5, 2, 2, 2, 0, 3, 3, 3, 2, 2, 2})
	f.Add([]byte{3, 9, 2, 2})
	f.Fuzz(func(t *testing.T, prog []byte) { checkAgainstReference(t, prog) })
}

// checkAgainstReference runs prog on a SAR and a refSAR side by side and
// fails at the first answer they disagree on. prog's first two bytes give
// the arm count and k; the rest is a program of operations: SetMeans (the
// next live-arm-count bytes are the means, on 8 levels), Drop (the next
// byte picks a live arm) and Step.
func checkAgainstReference(t *testing.T, prog []byte) {
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	n := 1 + int(next())%40
	k := 1 + int(next())%(n+1)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 3*i + int(next())%3 // sparse, ascending
	}
	s, err := NewSAR(ids, k)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSAR(ids, k)
	for step := 0; len(prog) > 0; step++ {
		switch op := next() % 4; op {
		case 0:
			means := make([]float64, len(live(s)))
			for i := range means {
				means[i] = float64(next()%8) / 8
			}
			s.SetMeans(means)
			ref.setMeans(means)
		case 1:
			l := live(s)
			if len(l) == 0 {
				continue
			}
			id := l[int(next())%len(l)]
			s.Drop(id)
			ref.drop(id)
		default:
			id, st, ok := s.Step()
			wid, wst, wok := ref.step()
			if id != wid || st != wst || ok != wok {
				t.Fatalf("op %d: Step = (%d, %v, %v), the per-decision rule says (%d, %v, %v)", step, id, st, ok, wid, wst, wok)
			}
		}
		if got, want := live(s), ref.live(); !slices.Equal(got, want) {
			t.Fatalf("op %d: live arms %v, want %v", step, got, want)
		}
		if got, want := acceptedIDs(s), ref.acceptedIDs(); !slices.Equal(got, want) {
			t.Fatalf("op %d: accepted %v, want %v", step, got, want)
		}
		if s.Done() != ref.done() || s.RemainingSlots() != ref.k-ref.accepted {
			t.Fatalf("op %d: Done %v with %d slots, want %v with %d", step, s.Done(), s.RemainingSlots(), ref.done(), ref.k-ref.accepted)
		}
	}
}

// refSAR is the per-decision rule SAR replaced, kept as its oracle: every
// arm stays in arms, by ascending id, with its state, and each decision
// ranks the active arms afresh. The sort is stable over arms in id order,
// so ties rank by id, as SAR's do. A dropped arm is marked rejected.
type refSAR struct {
	arms        []*refArm
	k, accepted int
}

type refArm struct {
	id    int
	mean  float64
	state State
}

func newRefSAR(ids []int, k int) *refSAR {
	r := &refSAR{k: k}
	for _, id := range ids {
		r.arms = append(r.arms, &refArm{id: id})
	}
	if k >= len(ids) {
		for _, a := range r.arms {
			a.state = Accepted
		}
		r.accepted = len(ids)
	}
	return r
}

// setMeans sets the live arms' means, in id order.
func (r *refSAR) setMeans(means []float64) {
	i := 0
	for _, a := range r.arms {
		if a.state != Rejected {
			a.mean = means[i]
			i++
		}
	}
}

func (r *refSAR) drop(id int) {
	for _, a := range r.arms {
		if a.id == id && a.state != Rejected {
			if a.state == Accepted {
				r.accepted--
			}
			a.state = Rejected
		}
	}
}

func (r *refSAR) done() bool {
	if r.accepted >= r.k {
		return true
	}
	for _, a := range r.arms {
		if a.state == Active {
			return false
		}
	}
	return true
}

func (r *refSAR) step() (id int, st State, ok bool) {
	if r.done() {
		return 0, Active, false
	}
	active := make([]*refArm, 0, len(r.arms))
	for _, a := range r.arms {
		if a.state == Active {
			active = append(active, a)
		}
	}
	sort.SliceStable(active, func(i, j int) bool { return active[i].mean > active[j].mean })
	slots := r.k - r.accepted
	if len(active) <= slots {
		for _, a := range active {
			a.state = Accepted
			r.accepted++
		}
		return active[0].id, Accepted, true
	}
	if len(active) < 2 {
		return 0, Active, false
	}
	delta1 := active[0].mean - active[slots].mean
	delta2 := active[slots-1].mean - active[len(active)-1].mean
	if delta1 > delta2 {
		active[0].state = Accepted
		r.accepted++
		return active[0].id, Accepted, true
	}
	last := active[len(active)-1]
	last.state = Rejected
	return last.id, Rejected, true
}

func (r *refSAR) live() []int { return r.ids(func(st State) bool { return st != Rejected }) }

func (r *refSAR) acceptedIDs() []int { return r.ids(func(st State) bool { return st == Accepted }) }

func (r *refSAR) ids(keep func(State) bool) []int {
	out := []int{}
	for _, a := range r.arms {
		if keep(a.state) {
			out = append(out, a.id)
		}
	}
	return out
}

// live returns s's live arms, ascending.
func live(s *SAR) []int { return append([]int{}, s.ids...) }

// acceptedIDs returns s's accepted arms, ascending.
func acceptedIDs(s *SAR) []int {
	out := []int{}
	for i, id := range s.ids {
		if s.accepted[i] {
			out = append(out, id)
		}
	}
	return out
}

// activeIDs returns s's active arms, ascending.
func activeIDs(s *SAR) []int {
	out := []int{}
	for i, id := range s.ids {
		if !s.accepted[i] {
			out = append(out, id)
		}
	}
	return out
}

// setMeans sets every live arm's mean to mean(id).
func setMeans(s *SAR, mean func(id int) float64) {
	means := make([]float64, len(s.ids))
	for i, id := range s.ids {
		means[i] = mean(id)
	}
	s.SetMeans(means)
}

// finish ends the selection by accepting the best active arms, by their
// last means, into the unfilled slots and dropping the rest (what a caller
// with exact means would do after the final phase). It returns the
// accepted set.
func finish(s *SAR) []int {
	var active []arm
	for i, id := range s.ids {
		if !s.accepted[i] {
			active = append(active, arm{id: id, mean: s.means[i]})
		}
	}
	sort.SliceStable(active, func(i, j int) bool { return active[i].mean > active[j].mean })
	for _, a := range active {
		if s.RemainingSlots() > 0 {
			s.accept(a.id)
		} else {
			s.Drop(a.id)
		}
	}
	return acceptedIDs(s)
}
