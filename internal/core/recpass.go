package core

import (
	"fmt"
	"slices"

	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// recPass derives the rating groups of one recommendation pass's candidate
// operations from groups already in hand. Every candidate of a step is the
// displayed group cur, or cur without one selector old (cur∖old), narrowed
// by at most two attribute-value pairs — and narrowing an ascending record
// list by ⟨a, v⟩ is reading bucket v of its query.Partition by a:
//
//	Filter            cur             by the added attribute
//	Generalize        cur∖old         itself
//	Change            cur∖old         by old's attribute
//	FilterGeneralize  cur∖old         by the added attribute
//	FilterChange      a Change group  by the added attribute
//
// so the ≈ 300 candidates of a step cost one materialization per selector of
// cur and a few dozen linear passes, not 300 entity-table scans and sorts,
// and the derived record lists equal what Query.Materialize(op.Target)
// returns element for element.
//
// A group's candidate rating maps depend only on which attributes its
// description binds — cur's, less at most one, plus at most one — so each
// such set is enumerated once per pass, not once per candidate operation.
//
// The memo belongs to one RecommendCtx call and is reachable only from it:
// sessions share an explorer, so nothing here may outlive the call or hang
// off the Explorer. The call evaluates its candidates one after another, so
// the memo needs no lock; a partition is built by the first candidate that
// needs it.
type recPass struct {
	ex  *Explorer
	cur *query.RatingGroup

	bases map[query.Selector][]int32 // old → records of cur∖old
	parts map[partKey]*query.Partition
	cands map[boundDelta][]ratingmap.Key

	derived, materialized, partitionRecords int

	// The bound gate. best holds the o highest exact utilities the pass has
	// computed so far, ascending, so best[0] is the utility a candidate must
	// reach to be recommended once len(best) == o. gate is keep, bound once
	// for the pass's ≈ 300 engine calls, or nil — and o is 0 — when the gate
	// is off. bounded counts the candidates keep turned down.
	o       int
	gate    func(ranked []float64) bool
	best    []float64
	bounded int
}

// source names a record list the pass partitions: cur (the zero value),
// cur∖removed, or — with changedTo set — cur∖removed narrowed to
// ⟨removed's attribute, changedTo⟩, a Change candidate's group.
type source struct {
	removed   query.Selector
	changedTo string
}

// partKey names one partition: a source bucketed by an attribute.
type partKey struct {
	src  source
	side query.Side
	attr string
}

// boundDelta names the attributes a candidate's target binds by how they
// differ from cur's: the one it unbinds and the one it binds (values blank;
// the zero Selector for none).
type boundDelta struct{ unbound, bound query.Selector }

// newRecPass starts the pass of a RecommendCtx call that will return the
// top o. The gate is on when there is a top to miss (o > 0; o ≤ 0 returns
// every candidate) and the ranking is Equation 2's own (no Cfg.Scorer: a
// re-weighting need not keep the order of the bound and the utility).
func newRecPass(ex *Explorer, cur *query.RatingGroup, o int) *recPass {
	p := &recPass{ex: ex, cur: cur, materialized: 1, // cur itself
		bases: make(map[query.Selector][]int32), parts: make(map[partKey]*query.Partition),
		cands: make(map[boundDelta][]ratingmap.Key)}
	if o > 0 && ex.Cfg.Scorer == nil {
		p.o, p.gate = o, p.keep
	}
	return p
}

// keep decides, from a candidate's k′ top utilities in rank order, whether
// its Equation 2 utility can still enter the pass's top-o. GMM returns K of
// the k′ maps (fewer when there are fewer) and groupUtility sums their
// utilities in rank order, so the j-th term of that sum is at most
// ranked[j]; every term is non-negative and float64 addition is monotone in
// both operands, so the sum of the first K ranked utilities, added in the
// same order, is ≥ the candidate's utility exactly — not up to rounding.
// A candidate whose bound is strictly below the o-th best exact utility so
// far cannot be among the o best at the end (that utility only rises) and
// is turned down. A bound equal to it is kept: ties are the stable sort's to
// decide. Candidates are evaluated in CandidateOps order, so which are
// turned down — and the span's bounded — is a function of the pass's input.
func (p *recPass) keep(ranked []float64) bool {
	bound := 0.0
	for _, u := range ranked[:min(p.ex.Cfg.K, len(ranked))] {
		bound += u
	}
	if len(p.best) == p.o && bound < p.best[0] {
		p.bounded++
		return false
	}
	return true
}

// offer tells the gate of a candidate's exact utility.
func (p *recPass) offer(u float64) {
	if p.o == 0 {
		return
	}
	if len(p.best) == p.o {
		if u <= p.best[0] {
			return
		}
		p.best = slices.Delete(p.best, 0, 1)
	}
	at, _ := slices.BinarySearch(p.best, u)
	p.best = slices.Insert(p.best, at, u)
}

// candidates is Generator.Candidates of op.Target, shared read-only by the
// operations whose targets bind the same attributes. Like records it trusts
// op's delta fields; a Change rebinds the attribute it changes, no delta.
func (p *recPass) candidates(op query.Operation) []ratingmap.Key {
	var d boundDelta
	if op.Removed != nil {
		d.unbound = query.Selector{Side: op.Removed.Side, Attr: op.Removed.Attr}
	}
	if op.Added != nil {
		d.bound = query.Selector{Side: op.Added.Side, Attr: op.Added.Attr}
	}
	if _, ok := p.cands[d]; !ok {
		p.cands[d] = p.ex.Gen.Candidates(p.ex.Query, op.Target)
	}
	return p.cands[d]
}

// records returns the records of op.Target, ascending. op must be one of
// CandidateOps' operations on the pass's cur: the delta fields are trusted
// to describe how Target differs from it.
func (p *recPass) records(op query.Operation) ([]int32, error) {
	if op.Kind != query.Generalize {
		p.derived++
	}
	switch op.Kind {
	case query.Filter:
		return p.bucket(source{}, *op.Added)
	case query.Generalize:
		return p.base(*op.Removed)
	case query.Change:
		return p.sourceRecords(source{removed: *op.Changed, changedTo: op.ChangedTo})
	case query.FilterGeneralize:
		return p.bucket(source{removed: *op.Removed}, *op.Added)
	case query.FilterChange:
		return p.bucket(source{removed: *op.Changed, changedTo: op.ChangedTo}, *op.Added)
	}
	return nil, fmt.Errorf("core: cannot derive the group of %s operation %s", op.Kind, op)
}

// bucket narrows a source by one selector.
func (p *recPass) bucket(src source, sel query.Selector) ([]int32, error) {
	key := partKey{src: src, side: sel.Side, attr: sel.Attr}
	part, ok := p.parts[key]
	if !ok {
		records, err := p.sourceRecords(src)
		if err != nil {
			return nil, err
		}
		if part, err = p.ex.Query.Partition(records, sel.Side, sel.Attr); err != nil {
			return nil, err
		}
		p.parts[key] = part
		p.partitionRecords += part.Len()
	}
	return part.Bucket(sel.Value)
}

func (p *recPass) sourceRecords(src source) ([]int32, error) {
	switch {
	case src.removed == (query.Selector{}):
		return p.cur.Records, nil
	case src.changedTo == "":
		return p.base(src.removed)
	}
	changed := src.removed
	changed.Value = src.changedTo
	return p.bucket(source{removed: src.removed}, changed)
}

// base materializes cur∖old: a superset of cur, so the one kind of group
// the pass cannot derive from it.
func (p *recPass) base(old query.Selector) ([]int32, error) {
	if records, ok := p.bases[old]; ok {
		return records, nil
	}
	desc, err := p.cur.Desc.Without(old)
	if err != nil {
		return nil, err
	}
	g, err := p.ex.Query.Materialize(desc)
	if err != nil {
		return nil, err
	}
	p.bases[old] = g.Records
	p.materialized++
	return g.Records, nil
}

// describe records on the pass's span where its candidate groups came from.
func (p *recPass) describe(span *obs.Span) {
	span.SetAttr("groups_derived", p.derived)
	span.SetAttr("groups_materialized", p.materialized)
	span.SetAttr("partitions_built", len(p.parts))
	span.SetAttr("partition_records", p.partitionRecords)
	span.SetAttr("bounded", p.bounded)
}
