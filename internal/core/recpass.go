package core

import (
	"context"
	"fmt"
	"slices"

	"subdex/internal/engine"
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
// cur and a few dozen linear passes, not 300 entity-table scans and sorts —
// and no pass at all for a partition an earlier pass built.
// A candidate is scored on query.Sample of its group (Cfg.RecSampleSize),
// and a partition keeps only that much of each bucket, so the derived
// record lists equal query.Sample(Query.Materialize(op.Target).Records)
// element for element; the Change and Generalize groups, which are not read
// through a bounded partition, are sampled into the pass's one buffer.
//
// A group's candidate rating maps depend only on which attributes its
// description binds — cur's, less at most one, plus at most one — and
// CandidateOps makes the operations of one such set one after another (an
// attribute's Filters, a change group's FilterChanges, the Changes), so the
// pass enumerates them into its key buffer where such a run starts, not
// once per candidate operation.
//
// The partitions are the explorer's: query.Engine.PartitionCached keeps them
// in the group cache under their source's description (cur, cur∖old, or a
// Change group's), so a pass reads the ones an earlier pass — of this
// session or another — built, and builds and shares the rest. A partition is
// immutable once built and hands its buckets out with their capacity
// clipped, so sharing one needs no lock. The memo, the buffers and the gate
// belong to one RecommendCtx call and are reachable only from it: sessions
// share an explorer, so the pass's own state, the engine result its
// candidates are scored into included, may not outlive the call or hang off
// the Explorer. The call evaluates its candidates one after another, so
// none of it needs a lock; a partition is looked up once a pass, by the
// first candidate that needs it.
type recPass struct {
	ex  *Explorer
	cur *query.RatingGroup

	bases map[query.Selector][]int32 // old → records of cur∖old
	parts map[partKey]*query.Partition

	// The buffers, each allocated once a pass and overwritten by the
	// candidates that need it: the engine reads them during its call and
	// keeps neither. keys holds the candidate rating maps of the last target
	// scored, which binds the attributes keysOf names (candidates); sample
	// the sample of the last Change or Generalize group over RecSampleSize
	// (sampleOf).
	keys   []ratingmap.Key
	keysOf boundDelta
	sample []int32
	// res and group are what every candidate's engine call is written into
	// and handed (groupUtility): one Result — its k′ maps, utilities,
	// scores and Profile — and one RatingGroup a pass, not one per
	// candidate.
	res   engine.Result
	group query.RatingGroup

	derived, materialized int
	// The partitions the pass built, the records they hold, and the ones it
	// found in the group cache.
	built, partitionRecords, reused int

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

// newRecPass starts the pass of a RecommendCtx call over ops, CandidateOps'
// operations on cur, that will return the top o. The gate is on whenever
// there is a top to miss: o > 0 (o ≤ 0 returns every candidate).
func newRecPass(ex *Explorer, cur *query.RatingGroup, o int, ops []query.Operation) *recPass {
	p := &recPass{ex: ex, cur: cur, materialized: 1, // cur itself
		bases: make(map[query.Selector][]int32, cur.Desc.Len()),
		parts: make(map[partKey]*query.Partition, partitionsOf(ops))}
	if o > 0 {
		p.o, p.gate = o, p.keep
	}
	return p
}

// partitionsOf counts the partitions a pass over ops reads — one per
// distinct partKey records reaches — so that the pass's memo is made at its
// size rather than grown to it. CandidateOps' order lets one walk count them
// without a set:
//
//   - Filters come attribute by attribute, and each attribute's partition
//     of cur is read by a run of them;
//   - every anchor's FilterGeneralize and FilterChange operations partition
//     the same sources — cur∖old and each Change group — by the anchor's
//     attribute, so the operations of the first anchor on an attribute read
//     one partition each and those of a later anchor on it read none anew;
//   - a Change and a FilterChange read their Change group out of the
//     partition of cur∖old by old's attribute, one per changed selector.
//
// Operations in another order only size the memo wrong.
func partitionsOf(ops []query.Operation) int {
	n := 0
	var filtered query.Selector // the last Filter's attribute, value blank
	// The first anchor on each attribute and the selectors changed: as many
	// as the displayed maps and cur's selectors, so they start on the stack.
	var anchorBuf, changedBuf [4]query.Selector
	anchors, changed := anchorBuf[:0], changedBuf[:0]
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case query.Filter:
			if a := (query.Selector{Side: op.Added.Side, Attr: op.Added.Attr}); a != filtered {
				filtered = a
				n++
			}
		case query.FilterGeneralize, query.FilterChange:
			at := slices.IndexFunc(anchors, func(s query.Selector) bool { return s.Side == op.Added.Side && s.Attr == op.Added.Attr })
			if at < 0 {
				at, anchors = len(anchors), append(anchors, *op.Added)
			}
			if anchors[at] == *op.Added {
				n++
			}
		}
		if (op.Kind == query.Change || op.Kind == query.FilterChange) && !slices.Contains(changed, *op.Changed) {
			changed = append(changed, *op.Changed)
			n++
		}
	}
	return n
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

// candidates is Generator.Candidates of op.Target, in the pass's key
// buffer: valid until the next call, and rebuilt only when op's target binds
// other attributes than the last one's. Like records it trusts op's delta
// fields; a Change rebinds the attribute it changes, no delta.
func (p *recPass) candidates(op query.Operation) []ratingmap.Key {
	var d boundDelta
	if op.Removed != nil {
		d.unbound = query.Selector{Side: op.Removed.Side, Attr: op.Removed.Attr}
	}
	if op.Added != nil {
		d.bound = query.Selector{Side: op.Added.Side, Attr: op.Added.Attr}
	}
	if p.keys != nil && d == p.keysOf {
		return p.keys
	}
	tables := p.ex.tables()
	dims := len(p.ex.DB.Ratings.Dimensions)
	if p.keys == nil {
		p.keys = make([]ratingmap.Key, 0, (tables[0].Schema.Len()+tables[1].Schema.Len())*dims)
	}
	// query.Engine.GroupingCandidates' rule: every attribute the target
	// leaves unbound that has at least two values, × every dimension.
	p.keys, p.keysOf = p.keys[:0], d
	for side, t := range tables {
		for a := 0; a < t.Schema.Len(); a++ {
			attr := t.Schema.At(a).Name
			if t.ValueCardinality(a) < 2 || op.Target.BindsAttr(query.Side(side), attr) {
				continue
			}
			for dim := 0; dim < dims; dim++ {
				p.keys = append(p.keys, ratingmap.Key{Side: query.Side(side), Attr: attr, Dim: dim})
			}
		}
	}
	return p.keys
}

// records returns the records op.Target is scored on: query.Sample of its
// records, ascending, under Cfg.RecSampleSize. op must be one of
// CandidateOps' operations on the pass's cur: the delta fields are trusted
// to describe how Target differs from it. A Change or Generalize group over
// the bound is sampled into the pass's buffer, so what records returns is
// valid until its next call.
func (p *recPass) records(op query.Operation) ([]int32, error) {
	if op.Kind != query.Generalize {
		p.derived++
	}
	n := p.ex.Cfg.RecSampleSize
	switch op.Kind {
	case query.Filter:
		return p.bucket(source{}, *op.Added, n)
	case query.Generalize:
		records, err := p.base(*op.Removed)
		return p.sampleOf(records), err
	case query.Change:
		records, err := p.sourceRecords(source{removed: *op.Changed, changedTo: op.ChangedTo})
		return p.sampleOf(records), err
	case query.FilterGeneralize:
		return p.bucket(source{removed: *op.Removed}, *op.Added, n)
	case query.FilterChange:
		return p.bucket(source{removed: *op.Changed, changedTo: op.ChangedTo}, *op.Added, n)
	}
	return nil, fmt.Errorf("core: cannot derive the group of %s operation %s", op.Kind, op)
}

// groupUtility is Equation 2 over a rating group given as its description,
// ascending records and candidate rating maps. To keep recommendation
// building interactive, a group is scored on query.Sample of its records
// (Cfg.RecSampleSize): records must already be that sample, as every list
// the pass derives is.
//
// The pass's gate, when on, is the engine's keep (engine.TopMapsIfCtx): it
// sees the group's k′ = K×L top utilities in rank order before any of the
// maps exists, and a group it turns down is reported bounded, its utility
// not computed — no map snapshot, no GMM.
//
// The engine writes every candidate's call into the pass's one result, and
// the group it is handed is the pass's one group: what groupUtility reads of
// either is summed into the float it returns, so the next call may
// overwrite both.
func (p *recPass) groupUtility(desc query.Description, records []int32, cands []ratingmap.Key,
	seen *ratingmap.SeenSet) (u float64, bounded bool, err error) {
	if len(records) == 0 {
		return 0, false, nil
	}
	ex := p.ex
	p.group = query.RatingGroup{Desc: desc, Records: records}
	//subdex:ctxflow a candidate's evaluation runs to completion: RecommendCtx checks ctx between candidates
	err = ex.Gen.TopMapsIfCtx(context.Background(), &p.res, &p.group, cands, seen, ex.Cfg.K*ex.Cfg.L, ex.Cfg.Engine, p.gate)
	if err != nil {
		return 0, false, err
	}
	if p.res.Gated {
		return 0, true, nil
	}
	_, picked := ex.selectDiverse(&p.res)
	for _, i := range picked {
		u += p.res.Utilities[i]
	}
	return u, false, nil
}

// sampleOf is query.Sample(records, Cfg.RecSampleSize) written into the
// pass's buffer. The buffer keeps only a sample: records handed back as
// they are belong to a partition or to bases.
func (p *recPass) sampleOf(records []int32) []int32 {
	sample := query.Sample(p.sample, records, p.ex.Cfg.RecSampleSize)
	if len(sample) < len(records) {
		p.sample = sample
	}
	return sample
}

// bucket narrows a source by one selector, keeping at most n records of it
// (query.Partition's bound; n ≤ 0 keeps it whole). One partKey is always
// built with one bound: only a Change group partitions cur∖old by old's own
// attribute, and only a Filter* candidate partitions by an attribute its
// source leaves unbound.
func (p *recPass) bucket(src source, sel query.Selector, n int) ([]int32, error) {
	key := partKey{src: src, side: sel.Side, attr: sel.Attr}
	part, ok := p.parts[key]
	if !ok {
		desc, err := p.sourceDesc(src)
		if err != nil {
			return nil, err
		}
		records, err := p.sourceRecords(src)
		if err != nil {
			return nil, err
		}
		var hit bool
		if part, hit, err = p.ex.Query.PartitionCached(desc, records, sel.Side, sel.Attr, n); err != nil {
			return nil, err
		}
		p.parts[key] = part
		if hit {
			p.reused++
		} else {
			p.built++
			p.partitionRecords += part.Len()
		}
	}
	return part.Bucket(sel.Value)
}

// sourceDesc is the description of a source's records, which is what its
// partitions are cached under.
func (p *recPass) sourceDesc(src source) (query.Description, error) {
	switch {
	case src.removed == (query.Selector{}):
		return p.cur.Desc, nil
	case src.changedTo == "":
		return p.cur.Desc.Without(src.removed)
	}
	return p.cur.Desc.WithChanged(src.removed, src.changedTo)
}

func (p *recPass) sourceRecords(src source) ([]int32, error) {
	switch {
	case src.removed == (query.Selector{}):
		return p.cur.Records, nil
	case src.changedTo == "":
		return p.base(src.removed)
	}
	// A Change group is whole: FilterChange partitions it again.
	changed := src.removed
	changed.Value = src.changedTo
	return p.bucket(source{removed: src.removed}, changed, 0)
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
// partitions_built and partition_records count the partitions the pass built
// and what they hold — under the sample bound at most RecSampleSize records
// a bucket, not the records they were built from; partitions_reused counts
// the ones it found in the group cache instead.
func (p *recPass) describe(span *obs.Span) {
	span.SetAttr("groups_derived", p.derived)
	span.SetAttr("groups_materialized", p.materialized)
	span.SetAttr("partitions_built", p.built)
	span.SetAttr("partition_records", p.partitionRecords)
	span.SetAttr("partitions_reused", p.reused)
	span.SetAttr("bounded", p.bounded)
}
