package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"

	"subdex/internal/engine"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// This file is the canonical serialization of a Session and its inverse.
// A session is fully determined by where it started and the operations
// committed since (the engine is bit-deterministic), so the snapshot is a
// command log: RestoreSession replays the ops through the real engine —
// rewarming the shared caches on the way — and verifies the rebuilt state
// against recorded digests. The one exception is anytime (degraded)
// steps, whose partial scans depend on wall-clock phase boundaries; their
// ops carry the recorded seen-set delta and are re-applied from the
// record instead of recomputed (see SessionOp.Seen).

// SnapshotVersion is the current serialization version. RestoreSession
// rejects snapshots written by a different version.
const SnapshotVersion = 1

// OpKind enumerates the committed session operations.
type OpKind string

// The four operations a session commits: a step display, an explicit
// description move, a recommendation application, and a Back.
const (
	OpStep      OpKind = "step"
	OpApply     OpKind = "apply"
	OpRecommend OpKind = "recommend"
	OpBack      OpKind = "back"
)

// SessionOp is one committed operation in a session's log. Ops are
// recorded only after they succeed, so a log replays without errors
// against the same engine.
type SessionOp struct {
	Kind OpKind `json:"kind"`
	// Predicate is the target description for OpApply (its canonical
	// String rendering, re-parsed on replay).
	Predicate string `json:"predicate,omitempty"`
	// Index is the 0-based recommendation index for OpRecommend.
	Index int `json:"index,omitempty"`
	// Digests fingerprints the displayed maps of an OpStep; replay must
	// reproduce them exactly.
	Digests []string `json:"digests,omitempty"`
	// Degraded marks an OpStep whose result was an anytime prefix. Such
	// steps are restored from Seen rather than recomputed.
	Degraded bool `json:"degraded,omitempty"`
	// Seen is the seen-set delta of a degraded OpStep: the pooled
	// distribution and dimension of each displayed map, in order.
	Seen []SeenDelta `json:"seen,omitempty"`
	// OpID is the client-supplied idempotency tag of the request that
	// committed this op (empty when the client sent none). It survives
	// recovery so duplicate-request detection works across restarts.
	OpID string `json:"op_id,omitempty"`
}

// SeenDelta records one displayed map's contribution to the seen set.
type SeenDelta struct {
	Dim  int       `json:"dim"`
	Dist []float64 `json:"dist"`
}

// SessionSnapshot is the canonical, versioned serialization of a Session.
// Start + Ops reconstruct the session; Final, when present, records the
// resulting state so the reconstruction can be verified, not trusted.
type SessionSnapshot struct {
	Version int `json:"version"`
	// Fingerprint binds the snapshot to the dataset and engine
	// configuration it was taken under (see Explorer.Fingerprint);
	// replaying against a different engine would silently diverge.
	Fingerprint string `json:"fingerprint"`
	// Mode is the exploration mode's wire token (ud | rp | fa).
	Mode string `json:"mode"`
	// Start is the canonical rendering of the session's first selection.
	Start string `json:"start"`
	// Ops is the committed operation log, oldest first.
	Ops []SessionOp `json:"ops,omitempty"`
	// Final records the state after all ops. Snapshots taken from a live
	// session carry it; snapshots reconstructed from a write-ahead log
	// leave it nil (the per-step digests in Ops are the authority there).
	Final *FinalState `json:"final,omitempty"`
}

// FinalState is the verifiable end state of a snapshot's op log.
type FinalState struct {
	// Current is the canonical rendering of the selection after all ops.
	Current string `json:"current"`
	// Steps is the number of step displays after all ops.
	Steps int `json:"steps"`
	// Seen is the full seen-set state after all ops.
	Seen ratingmap.SeenState `json:"seen"`
}

// Snapshot exports the session's durable state.
func (s *Session) Snapshot() *SessionSnapshot {
	return &SessionSnapshot{
		Version:     SnapshotVersion,
		Fingerprint: s.Ex.Fingerprint(),
		Mode:        s.Mode.Token(),
		Start:       s.start.String(),
		Ops:         append([]SessionOp(nil), s.oplog...),
		Final: &FinalState{
			Current: s.cur.String(),
			Steps:   len(s.steps),
			Seen:    s.seen.State(),
		},
	}
}

// BaseSnapshot exports the session's creation-time state alone: the
// snapshot a durable store records when the session is created, before
// any op is appended to it.
func (s *Session) BaseSnapshot() *SessionSnapshot {
	return &SessionSnapshot{
		Version:     SnapshotVersion,
		Fingerprint: s.Ex.Fingerprint(),
		Mode:        s.Mode.Token(),
		Start:       s.start.String(),
	}
}

// NumOps returns the length of the committed operation log.
func (s *Session) NumOps() int { return len(s.oplog) }

// TagLastOp attaches a client idempotency tag to the most recently
// committed op. It is a no-op on an empty log or an empty id.
func (s *Session) TagLastOp(id string) {
	if id == "" || len(s.oplog) == 0 {
		return
	}
	s.oplog[len(s.oplog)-1].OpID = id
}

// LastOp returns the most recently committed op and true, or false on an
// empty log.
func (s *Session) LastOp() (SessionOp, bool) {
	if len(s.oplog) == 0 {
		return SessionOp{}, false
	}
	return s.oplog[len(s.oplog)-1], true
}

// Fingerprint renders a stable identity for the explorer's dataset and
// result-affecting configuration: the Table 2 dataset statistics plus the
// dimension schema, and the Table 3 / engine parameters that change what
// a step computes. Scheduling knobs (worker counts, step timeouts, the
// scanner) are excluded on purpose — the engine is proven to return
// bit-identical results across them.
func (ex *Explorer) Fingerprint() string {
	h := fnv.New64a()
	st := ex.DB.Stats()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d", st.Name, st.NumAttributes,
		st.MaxNumValues, st.NumDimensions, st.NumRatings, st.NumReviewers, st.NumItems)
	for _, d := range ex.DB.Ratings.Dimensions {
		fmt.Fprintf(h, "|dim=%s/%d", d.Name, d.Scale)
	}
	c := ex.Cfg
	fmt.Fprintf(h, "|k=%d|o=%d|l=%d|div=%t|rss=%d", c.K, c.O, c.L, c.DiversityOnly, c.RecSampleSize)
	e := c.Engine
	// "exact=false" and "Normalize:false" are tokens of settings since
	// removed (exact scans on cache misses; min-max normalization of the
	// criteria), neither ever enabled by any binary; util is spelled out as
	// %+v rendered it with Normalize still a field. The literals keep every
	// stored session directory and mixed-version cluster on the same
	// fingerprint.
	u := e.Utility
	fmt.Fprintf(h, "|ph=%d|delta=%g|prune=%d|minph=%d|exact=false"+
		"|util={Aggregation:%d Single:%v Peculiarity:%v DisableDimensionWeights:%t Normalize:false}",
		e.Phases, engine.Delta, int(e.Pruning), e.MinPhaseRecords,
		u.Aggregation, u.Single, u.Peculiarity, u.DisableDimensionWeights)
	// The candidate caps decide which operations a step recommends, so an
	// OpRecommend index replays onto a different target under different
	// caps. Rendered only when set: the uncapped default keeps the
	// fingerprint every stored session directory already carries.
	if lim := c.Limits; lim.MaxValuesPerAttribute != 0 || lim.MaxCandidates != 0 {
		fmt.Fprintf(h, "|maxv=%d|maxc=%d", lim.MaxValuesPerAttribute, lim.MaxCandidates)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// RestoreSession rebuilds a session from its snapshot by replaying the
// operation log through the real engine. Every non-degraded step is
// recomputed and verified against its recorded digests; degraded steps
// are re-applied from their recorded seen-set delta. The final state is
// additionally checked against the snapshot's Current/Steps/Seen record.
// Replay therefore both proves exactness and rewarms the engine's
// cross-step cache for the session's path. It is RestoreSessions of one
// snapshot.
func RestoreSession(ctx context.Context, ex *Explorer, snap *SessionSnapshot) (*Session, error) {
	sessions, errs := RestoreSessions(ctx, ex, []*SessionSnapshot{snap})
	return sessions[0], errs[0]
}

// RestoreSessions is RestoreSession over many snapshots at once, which
// replays an op-log prefix that several of them share once. Snapshots
// share a prefix when they start from the same mode and selection and
// their logs agree op for op on every field but the OpID tag; where two
// logs part, the session replayed so far is cloned, and each clone goes
// on with its own ops. Each session still ends with its own OpID tags and
// is held to its own Final record, and every step it shows was recomputed
// and checked against the digests its log holds — in the one replay its
// log shares with others. The i-th session or error is snaps[i]'s, with
// RestoreSession's error for it: an op that fails fails exactly the
// snapshots whose log holds it. Prefixes are replayed depth first in the
// order of their first snapshot, which is the order the engine's caches
// are rewarmed in.
func RestoreSessions(ctx context.Context, ex *Explorer, snaps []*SessionSnapshot) ([]*Session, []error) {
	w := restoreWalk{ctx: ctx, snaps: snaps,
		sessions: make([]*Session, len(snaps)), errs: make([]error, len(snaps))}
	type root struct {
		mode    Mode
		start   query.Description
		members []int
	}
	var roots []*root
	byStart := make(map[string]*root)
	for i, snap := range snaps {
		mode, start, err := ex.snapshotStart(snap)
		if err != nil {
			w.errs[i] = err
			continue
		}
		key := mode.Token() + "\x00" + start.Key()
		r := byStart[key]
		if r == nil {
			r = &root{mode: mode, start: start}
			byStart[key] = r
			roots = append(roots, r)
		}
		r.members = append(r.members, i)
	}
	for _, r := range roots {
		sess, err := newSession(ex, r.mode, r.start)
		if err != nil {
			for _, m := range r.members {
				w.errs[m] = err
			}
			continue
		}
		w.walk(sess, r.members, 0)
	}
	return w.sessions, w.errs
}

// snapshotStart checks a snapshot's header against the explorer and
// parses where its session starts.
func (ex *Explorer) snapshotStart(snap *SessionSnapshot) (Mode, query.Description, error) {
	if snap == nil {
		return 0, query.Description{}, fmt.Errorf("core: nil snapshot")
	}
	if snap.Version != SnapshotVersion {
		return 0, query.Description{}, fmt.Errorf("core: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if fp := ex.Fingerprint(); snap.Fingerprint != fp {
		return 0, query.Description{}, fmt.Errorf("core: snapshot fingerprint %s does not match engine %s", snap.Fingerprint, fp)
	}
	mode, err := ParseModeToken(snap.Mode)
	if err != nil {
		return 0, query.Description{}, err
	}
	start, err := ex.ParseDescription(snap.Start)
	if err != nil {
		return 0, query.Description{}, fmt.Errorf("core: snapshot start: %w", err)
	}
	return mode, start, nil
}

// restoreWalk is one RestoreSessions call's walk over the op-log prefix
// tree: sessions and errs are filled in as snapshots finish.
type restoreWalk struct {
	ctx      context.Context
	snaps    []*SessionSnapshot
	sessions []*Session
	errs     []error
}

// walk goes on from sess, the replay of the first depth ops that every
// member's log shares. Members whose log ends here finish; the others
// part by their next op, and each part replays it once. sess is cloned
// for every use but its last, before any use changes it.
func (w *restoreWalk) walk(sess *Session, members []int, depth int) {
	var ends []int
	var parts [][]int
next:
	for _, m := range members {
		ops := w.snaps[m].Ops
		if len(ops) == depth {
			ends = append(ends, m)
			continue
		}
		for p, part := range parts {
			if sameOp(w.snaps[part[0]].Ops[depth], ops[depth]) {
				parts[p] = append(part, m)
				continue next
			}
		}
		parts = append(parts, []int{m})
	}
	uses := len(ends) + len(parts)
	take := func() *Session {
		if uses--; uses == 0 {
			return sess
		}
		return sess.clone()
	}
	for _, m := range ends {
		w.finish(m, take())
	}
	for _, part := range parts {
		s := take()
		op := w.snaps[part[0]].Ops[depth]
		if err := s.replayOp(w.ctx, op); err != nil {
			for _, m := range part {
				w.errs[m] = fmt.Errorf("core: replay op %d (%s): %w", depth, op.Kind, err)
			}
			continue
		}
		w.walk(s, part, depth+1)
	}
}

// finish hands sess, the replay of snapshot m's whole log, to m: the log's
// own OpID tags go on its ops, and its Final record is checked.
func (w *restoreWalk) finish(m int, sess *Session) {
	snap := w.snaps[m]
	for i, op := range snap.Ops {
		sess.oplog[i].OpID = op.OpID
	}
	if f := snap.Final; f != nil {
		if got := sess.cur.String(); got != f.Current {
			w.errs[m] = fmt.Errorf("core: replay ended at %q, snapshot recorded %q", got, f.Current)
			return
		}
		if len(sess.steps) != f.Steps {
			w.errs[m] = fmt.Errorf("core: replay produced %d steps, snapshot recorded %d", len(sess.steps), f.Steps)
			return
		}
		if !sess.seen.EqualState(f.Seen) {
			w.errs[m] = fmt.Errorf("core: replayed seen-set diverges from snapshot")
			return
		}
	}
	w.sessions[m] = sess
}

// sameOp reports whether two logged ops replay alike: equal in every field
// but the OpID tag, nil and empty slices told apart as a degraded step's
// op is committed as logged.
func sameOp(a, b SessionOp) bool {
	if a.Kind != b.Kind || a.Predicate != b.Predicate || a.Index != b.Index || a.Degraded != b.Degraded ||
		(a.Digests == nil) != (b.Digests == nil) || !slices.Equal(a.Digests, b.Digests) ||
		(a.Seen == nil) != (b.Seen == nil) || len(a.Seen) != len(b.Seen) {
		return false
	}
	for i, d := range a.Seen {
		o := b.Seen[i]
		if d.Dim != o.Dim || (d.Dist == nil) != (o.Dist == nil) || !slices.Equal(d.Dist, o.Dist) {
			return false
		}
	}
	return true
}

// replayOp re-executes one logged operation, verifying step digests.
func (s *Session) replayOp(ctx context.Context, op SessionOp) error {
	switch op.Kind {
	case OpStep:
		if op.Degraded {
			return s.replayDegradedStep(op)
		}
		res, err := s.StepCtx(ctx)
		if err != nil {
			return err
		}
		if res.Degraded {
			return fmt.Errorf("replayed step degraded, original did not")
		}
		// The step has just logged its own digests; the recorded op's are
		// held against those, not against a second rendering of the maps.
		if len(res.Digests) != len(op.Digests) {
			return fmt.Errorf("replayed step shows %d maps, log recorded %d", len(res.Digests), len(op.Digests))
		}
		for i, got := range res.Digests {
			if got != op.Digests[i] {
				return fmt.Errorf("map %d digest mismatch: replay %s, log %s", i, got, op.Digests[i])
			}
		}
		return nil
	case OpApply:
		d, err := s.Ex.ParseDescription(op.Predicate)
		if err != nil {
			return err
		}
		return s.ApplyDescription(d)
	case OpRecommend:
		return s.ApplyRecommendation(op.Index)
	case OpBack:
		if !s.Back() {
			return fmt.Errorf("back on empty history")
		}
		return nil
	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
}

// replayDegradedStep re-applies a degraded step's recorded effect: its
// seen-set delta and a placeholder step entry. The anytime computation
// itself is not re-run — its scanned prefix depended on wall-clock phase
// boundaries, which no replay can reproduce.
func (s *Session) replayDegradedStep(op SessionOp) error {
	if len(op.Seen) != len(op.Digests) {
		return fmt.Errorf("degraded step records %d deltas for %d maps", len(op.Seen), len(op.Digests))
	}
	for _, d := range op.Seen {
		s.seen.AddDist(d.Dim, d.Dist)
	}
	res := &StepResult{Desc: s.cur, Degraded: true}
	res.Profile = &StepProfile{Selection: s.cur.String(), Mode: s.Mode.String(),
		Degraded: true, DegradedReason: "restored_from_log"}
	s.steps = append(s.steps, res)
	s.oplog = append(s.oplog, op)
	return nil
}

// stepOp builds the log record of a just-executed step. It is the one
// place a step's maps are digested: the digests stay on res, where the
// replay check and every rendering of the step read them.
func stepOp(res *StepResult) SessionOp {
	op := SessionOp{Kind: OpStep, Degraded: res.Degraded}
	op.Digests = make([]string, len(res.Maps))
	for i, rm := range res.Maps {
		op.Digests[i] = rm.Digest()
	}
	res.Digests = op.Digests
	if res.Degraded {
		op.Seen = make([]SeenDelta, len(res.Maps))
		for i, rm := range res.Maps {
			op.Seen[i] = SeenDelta{Dim: rm.Dim, Dist: rm.Distribution()}
		}
	}
	return op
}

// Token renders the mode as its compact wire token, shared by the HTTP
// API and session snapshots.
func (m Mode) Token() string {
	switch m {
	case UserDriven:
		return "ud"
	case FullyAutomated:
		return "fa"
	default:
		return "rp"
	}
}

// ParseModeToken parses a wire token back into a Mode.
func ParseModeToken(tok string) (Mode, error) {
	switch tok {
	case "ud":
		return UserDriven, nil
	case "rp", "":
		return RecommendationPowered, nil
	case "fa":
		return FullyAutomated, nil
	default:
		return 0, fmt.Errorf("core: unknown mode token %q", tok)
	}
}
