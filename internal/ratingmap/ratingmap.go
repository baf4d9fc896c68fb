// Package ratingmap implements rating distributions and rating maps
// (Definitions 1-2 of the paper), their interestingness criteria —
// conciseness, agreement, self peculiarity, global peculiarity (§3.2.3,
// §4.1) — and the dimension-weighted utility of Equation 1.
//
// A rating map is the result of a GroupBy over a rating group g_R on a
// single reviewer or item attribute, aggregated on one rating dimension:
// each subgroup carries its rating distribution and average score.
package ratingmap

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"subdex/internal/dataset"
	"subdex/internal/query"
	"subdex/internal/stats"
)

// Key identifies a candidate rating map: the grouping attribute (on one
// side) and the rating dimension aggregated.
type Key struct {
	Side query.Side
	Attr string
	Dim  int // index into the rating table's dimensions
}

// String renders the key as e.g. "GROUPBY items.city AGG food".
func (k Key) String() string {
	return fmt.Sprintf("GROUPBY %s.%s AGG dim%d", k.Side, k.Attr, k.Dim)
}

// Subgroup is one bar of the rating map: the records of g_R whose grouping
// attribute has the given value, with their score histogram.
type Subgroup struct {
	Value dataset.ValueID
	// Counts[s-1] is the number of records with score s; length = scale m.
	Counts []int
	N      int
}

// Distribution returns the subgroup's rating distribution.
func (sg *Subgroup) Distribution() stats.Distribution {
	return stats.NewDistributionFromCounts(sg.Counts)
}

// AvgScore returns the subgroup's aggregated (average) score, the single
// number the paper's rating maps attach to each subgroup. Records with a
// missing score are excluded by construction.
func (sg *Subgroup) AvgScore() float64 {
	if sg.N == 0 {
		return 0
	}
	sum := 0
	for i, c := range sg.Counts {
		sum += (i + 1) * c
	}
	return float64(sum) / float64(sg.N)
}

// StdDev returns the standard deviation of scores within the subgroup,
// feeding the agreement criterion.
func (sg *Subgroup) StdDev() float64 {
	return sg.Distribution().StdDev()
}

// ModeScore returns the subgroup's most frequent rating value — the
// "highest probability for the rating dimension" aggregation Definition 2
// names as an alternative to the average. Ties break toward the lower
// rating; an empty subgroup returns 0.
func (sg *Subgroup) ModeScore() int {
	best, bestCount := 0, 0
	for i, c := range sg.Counts {
		if c > bestCount {
			best, bestCount = i+1, c
		}
	}
	return best
}

// RatingMap is a materialized rating map rm(g_R, r_i).
type RatingMap struct {
	Key
	DimName string
	Scale   int
	// Desc is the description of the underlying rating group.
	Desc query.Description
	// Subgroups are sorted by descending average score, as displayed in the
	// paper's Figure 3 tables.
	Subgroups []Subgroup
	// TotalRecords is |g_R| counted with multiplicity for multi-valued
	// grouping attributes (a record in two cuisines appears in two bars).
	TotalRecords int

	total []int // pooled histogram across subgroups
}

// Dict resolves subgroup values to display strings; set by the builder.
type Dict interface {
	Value(dataset.ValueID) string
}

// Distribution returns the rating distribution of the whole map (pooled
// across subgroups), the reference distribution for self peculiarity and the
// object compared by global peculiarity and EMD-based diversity.
func (rm *RatingMap) Distribution() stats.Distribution {
	return stats.NewDistributionFromCounts(rm.total)
}

// NumSubgroups returns the number of bars.
func (rm *RatingMap) NumSubgroups() int { return len(rm.Subgroups) }

// Signature returns the distribution of subgroup average scores, weighted
// by subgroup size, with fractional averages split linearly between the
// neighbouring scale bins. Unlike the pooled Distribution — which is
// identical for every grouping of the same records on the same dimension —
// the signature reflects the grouping structure itself, so it can tell
// "GroupBy neighborhood" apart from "GroupBy parking" even on one
// dimension. The diversity distance combines both.
func (rm *RatingMap) Signature() stats.Distribution {
	sig := make(stats.Distribution, rm.Scale)
	total := 0.0
	for i := range rm.Subgroups {
		sg := &rm.Subgroups[i]
		if sg.N == 0 {
			continue
		}
		avg := sg.AvgScore() // in [1, scale]
		pos := avg - 1       // in [0, scale-1]
		lo := int(pos)
		frac := pos - float64(lo)
		w := float64(sg.N)
		if lo >= rm.Scale-1 {
			sig[rm.Scale-1] += w
		} else {
			sig[lo] += w * (1 - frac)
			sig[lo+1] += w * frac
		}
		total += w
	}
	if total == 0 {
		sig.Normalize()
		return sig
	}
	for i := range sig {
		sig[i] /= total
	}
	return sig
}

// Render formats the map as the tabular view of Figure 3.
func (rm *RatingMap) Render(dict Dict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "GroupBy %s.%s, aggregated by %s score\n", rm.Side, rm.Attr, rm.DimName)
	fmt.Fprintf(&b, "%-20s %12s %-28s %10s\n", rm.Attr, "# of records", "rating distribution", "avg. score")
	for _, sg := range rm.Subgroups {
		label := fmt.Sprintf("%d", sg.Value)
		if dict != nil {
			label = dict.Value(sg.Value)
		}
		var dist strings.Builder
		dist.WriteByte('{')
		for s, c := range sg.Counts {
			if s > 0 {
				dist.WriteByte(',')
			}
			fmt.Fprintf(&dist, "%d:%d", s+1, c)
		}
		dist.WriteByte('}')
		fmt.Fprintf(&b, "%-20s %12d %-28s %10.1f\n", label, sg.N, dist.String(), sg.AvgScore())
	}
	return b.String()
}

// Builder materializes rating maps over a database. It implements the
// "Combining Multiple Aggregates" sharing optimization of §4.2.1: one scan
// of a record range updates the partial results of every candidate map that
// groups by the same attribute, across all rating dimensions.
type Builder struct {
	DB *dataset.DB
	// DisableKernel forces the row-oriented reference accumulation path even
	// when the fused columnar scan kernel (kernel.go) is available. The
	// reference path is the exactness oracle: the differential harness and
	// FuzzScanKernel assert that both paths produce bit-identical digests
	// on every input. Only tests set it; no non-test code does.
	DisableKernel bool
}

// partial accumulates one candidate map across phases. hist is the dense
// [NValues × (scale+1)] counter block both scan paths increment: cell
// v*(scale+1)+s counts the records of subgroup value v with score s. Row 0
// (missing value) and column 0 (missing score) are discard cells — the
// kernel writes them instead of branching per record, and every reader
// goes through rows, which skips them. The block is sized once, from the
// attribute's dictionary, when the partial is built.
type partial struct {
	key   Key
	scale int
	hist  []int32
}

// rows calls fn for every subgroup of the candidate in ascending value
// order: a subgroup exists iff its row holds a scored record. counts are
// the row's score columns (counts[s-1] = records with score s), n their
// sum.
func (p *partial) rows(fn func(v dataset.ValueID, counts []int32, n int)) {
	stride := p.scale + 1
	for base := stride; base < len(p.hist); base += stride {
		counts := p.hist[base+1 : base+stride]
		n := 0
		for _, c := range counts {
			n += int(c)
		}
		if n > 0 {
			fn(dataset.ValueID(base/stride), counts, n)
		}
	}
}

// Accumulator holds the in-progress subgroup histograms of a set of
// candidate maps sharing scans, keyed by grouping attribute. The engine's
// phase loop calls Update once per phase with the next record fraction.
type Accumulator struct {
	db *dataset.DB
	// byAttr groups partials sharing the same (side, attr) so one
	// attribute lookup per record serves every dimension.
	byAttr map[attrRef][]*partial
	order  []Key
	desc   query.Description
	// kernel selects the fused columnar scan path (kernel.go) for Update.
	// Set at construction: on iff the database is frozen (so the flat
	// column projections exist) and the builder did not disable it.
	kernel bool

	// recordVisits counts per-record attribute lookups — the cost the
	// "Combining Multiple Aggregates" sharing optimization bounds: one
	// visit per (record, attribute), independent of how many rating
	// dimensions share the attribute.
	recordVisits int
}

// attrRef names one grouping attribute: the unit of scan sharing.
type attrRef struct {
	side query.Side
	attr string
}

// NewAccumulator prepares shared accumulation for the given candidate keys
// over the rating group described by desc. The recommendation pass builds
// an accumulator of ~80 candidates for every candidate operation, so
// construction is a handful of allocations, not a few per candidate: all
// blocks are carved out of one slab — each with its capacity clipped to its
// length, so no block can grow into the next — and a run of keys sharing an
// attribute (Generator.Candidates lists an attribute's dimensions together)
// is registered with one map write.
func (b *Builder) NewAccumulator(desc query.Description, keys []Key) *Accumulator {
	acc := b.emptyAccumulator(desc)
	partials := make([]partial, len(keys))
	refs := make([]*partial, len(keys))
	ends := make([]int, len(keys)) // ends[i]: where candidate i's block ends in the slab
	cells := 0
	for i, k := range keys {
		scale, n := acc.blockShape(k)
		cells += n
		partials[i], refs[i], ends[i] = partial{key: k, scale: scale}, &partials[i], cells
	}
	slab := make([]int32, cells)
	for i, lo := 0, 0; i < len(keys); i++ {
		partials[i].hist = slab[lo:ends[i]:ends[i]]
		lo = ends[i]
	}
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		ak := attrRef{keys[lo].Side, keys[lo].Attr}
		for hi = lo + 1; hi < len(keys) && keys[hi].Side == ak.side && keys[hi].Attr == ak.attr; hi++ {
		}
		if seen, ok := acc.byAttr[ak]; ok { // the attribute's keys were not contiguous
			acc.byAttr[ak] = append(seen, refs[lo:hi]...)
		} else {
			acc.byAttr[ak] = refs[lo:hi:hi]
		}
	}
	acc.order = slices.Clone(keys)
	return acc
}

// newPartial is a candidate's partial with a block of its own.
func (a *Accumulator) newPartial(k Key) *partial {
	scale, cells := a.blockShape(k)
	return &partial{key: k, scale: scale, hist: make([]int32, cells)}
}

// blockShape sizes a candidate's block from its attribute's dictionary as
// it stands now, so the database must already hold its dictionaries —
// every production path freezes it first. An attribute outside the schema
// gets an empty block: no scan ever reaches it.
func (a *Accumulator) blockShape(k Key) (scale, cells int) {
	scale = a.db.Ratings.Dimensions[k.Dim].Scale
	nValues := 0
	if t, _, ai := a.resolveAttr(attrRef{k.Side, k.Attr}); ai >= 0 {
		nValues = t.Dict(ai).Len()
	}
	return scale, nValues * (scale + 1)
}

// emptyAccumulator is the one place an Accumulator is constructed, so the
// kernel-selection rule (Accumulator.kernel) is written once for scans and
// for decoded wire frames alike.
func (b *Builder) emptyAccumulator(desc query.Description) *Accumulator {
	return &Accumulator{
		db:     b.DB,
		byAttr: make(map[attrRef][]*partial),
		desc:   desc,
		kernel: !b.DisableKernel && b.DB != nil && b.DB.Frozen(),
	}
}

// register appends a candidate's partial at the end of the key order.
func (a *Accumulator) register(p *partial) {
	ak := attrRef{p.key.Side, p.key.Attr}
	a.byAttr[ak] = append(a.byAttr[ak], p)
	a.order = append(a.order, p.key)
}

// Update feeds a batch of rating-record positions into every candidate map.
// It dispatches to the fused columnar scan kernel (kernel.go) when the
// database is frozen, falling back to the row-oriented reference path
// otherwise (or when the builder disabled the kernel). Exactness is the
// contract between the two paths: identical Digest output on every input,
// enforced by the engine differential harness and FuzzScanKernel.
func (a *Accumulator) Update(records []int32) {
	if a.kernel {
		a.updateKernel(records)
		return
	}
	a.updateReference(records)
}

// updateReference is the row-oriented reference scan: per record, an
// attribute-keyed lookup, a kind switch, and explicit missing-value and
// missing-score branches in front of every increment. Deliberately simple
// — it is the oracle the kernel is proven bit-identical against.
func (a *Accumulator) updateReference(records []int32) {
	//subdex:orderinsensitive each iteration mutates only its own attribute's partials; records are scanned in slice order within each, so attribute order cannot leak into any histogram or discovery order
	for ak, ps := range a.byAttr {
		t, rowOf, ai := a.resolveAttr(ak)
		if ai < 0 {
			continue
		}
		a.recordVisits += len(records)
		a.refScanAttr(t, rowOf, ai, records, ps)
	}
}

// resolveAttr maps an attribute key to its entity table, the per-record
// entity-row column, and the attribute's schema index (-1 if absent).
func (a *Accumulator) resolveAttr(ak attrRef) (*dataset.EntityTable, []int32, int) {
	if ak.side == query.ReviewerSide {
		return a.db.Reviewers, a.db.Ratings.Reviewer, a.db.Reviewers.Schema.Index(ak.attr)
	}
	return a.db.Items, a.db.Ratings.Item, a.db.Items.Schema.Index(ak.attr)
}

// refScanAttr folds one attribute's shared scan over records into its
// partials via the row-oriented accessors.
func (a *Accumulator) refScanAttr(t *dataset.EntityTable, rowOf []int32, ai int, records []int32, ps []*partial) {
	kind := t.Schema.At(ai).Kind
	for _, r := range records {
		row := int(rowOf[r])
		switch kind {
		case dataset.Atomic:
			v := t.AtomicValue(ai, row)
			for _, p := range ps {
				p.add(v, a.db.Ratings.Scores[p.key.Dim][r])
			}
		case dataset.MultiValued:
			for _, v := range t.MultiValues(ai, row) {
				for _, p := range ps {
					p.add(v, a.db.Ratings.Scores[p.key.Dim][r])
				}
			}
		}
	}
}

// add is the reference path's increment: what the kernel sends to the
// discard cells is branched around here.
func (p *partial) add(v dataset.ValueID, s dataset.Score) {
	if v == dataset.MissingValue || s == 0 {
		return
	}
	p.hist[int(v)*(p.scale+1)+int(s)]++
}

// Keys returns the candidate keys in registration order.
func (a *Accumulator) Keys() []Key { return a.order }

// RecordVisits reports how many (record, attribute) lookups the shared
// scans performed so far — the work the sharing optimization bounds.
func (a *Accumulator) RecordVisits() int { return a.recordVisits }

// Remove drops a candidate from accumulation, the effect of pruning: later
// phases no longer pay for its histogram updates. Removing the last
// candidate of an attribute removes the attribute's shared scan entirely.
func (a *Accumulator) Remove(k Key) {
	ak := attrRef{k.Side, k.Attr}
	ps := a.byAttr[ak]
	for i, p := range ps {
		if p.key == k {
			a.byAttr[ak] = append(ps[:i], ps[i+1:]...)
			break
		}
	}
	if len(a.byAttr[ak]) == 0 {
		delete(a.byAttr, ak)
	}
	for i, key := range a.order {
		if key == k {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
}

// Snapshot materializes the current partial state of one candidate as a
// RatingMap. The engine uses snapshots both for per-phase utility estimates
// and for the final exact maps after the last phase.
func (a *Accumulator) Snapshot(k Key) *RatingMap {
	p := a.find(k)
	if p == nil {
		return nil
	}
	rm := &RatingMap{
		Key:     k,
		DimName: a.db.Ratings.Dimensions[k.Dim].Name,
		Scale:   p.scale,
		Desc:    a.desc,
		total:   make([]int, p.scale),
	}
	p.rows(func(v dataset.ValueID, counts []int32, n int) {
		sg := Subgroup{Value: v, Counts: make([]int, p.scale), N: n}
		for s, c := range counts {
			sg.Counts[s] = int(c)
			rm.total[s] += int(c)
		}
		rm.TotalRecords += n
		rm.Subgroups = append(rm.Subgroups, sg)
	})
	sort.Slice(rm.Subgroups, func(i, j int) bool {
		ai, aj := rm.Subgroups[i].AvgScore(), rm.Subgroups[j].AvgScore()
		if ai != aj {
			return ai > aj
		}
		return rm.Subgroups[i].Value < rm.Subgroups[j].Value
	})
	return rm
}

// Build materializes every candidate in one pass over all records of the
// group — the unshared, unpruned path used by the Naive engine variant and
// by tests as ground truth.
func (b *Builder) Build(desc query.Description, records []int32, keys []Key) []*RatingMap {
	acc := b.NewAccumulator(desc, keys)
	acc.Update(records)
	out := make([]*RatingMap, 0, len(keys))
	for _, k := range keys {
		out = append(out, acc.Snapshot(k))
	}
	return out
}
