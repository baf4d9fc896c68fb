package dataset

import (
	"math"
	"sort"
)

// AttributeProfile summarizes one objective attribute for exploration UIs
// and workload analysis: value cardinality, coverage, Shannon entropy of
// the value distribution, and the most frequent values.
type AttributeProfile struct {
	Name string
	Kind Kind
	// Cardinality is the number of distinct non-missing values.
	Cardinality int
	// Missing is the number of rows with no value.
	Missing int
	// Rows is the table size.
	Rows int
	// Entropy is the Shannon entropy (bits) of the value distribution;
	// higher means the attribute splits the table more evenly.
	Entropy float64
	// Top holds the most frequent values, descending.
	Top []ValueCount
}

// ValueCount pairs a value with its row count.
type ValueCount struct {
	Value string
	Count int
}

// Profile computes the attribute profile of attribute index a, keeping at
// most topN most-frequent values (0 keeps all).
func (t *EntityTable) Profile(a, topN int) AttributeProfile {
	attr := t.Schema.At(a)
	p := AttributeProfile{Name: attr.Name, Kind: attr.Kind, Rows: t.Len()}
	counts := make(map[ValueID]int)
	total := 0
	for row := 0; row < t.Len(); row++ {
		// A set never holds MissingValue, so only a missing atomic value
		// starts with it.
		vs := t.cell(a, row)
		if len(vs) == 0 || vs[0] == MissingValue {
			p.Missing++
			continue
		}
		for _, v := range vs {
			counts[v]++
			total++
		}
	}
	p.Cardinality = len(counts)
	for v, c := range counts {
		p.Top = append(p.Top, ValueCount{Value: t.Dict(a).Value(v), Count: c})
		if total > 0 {
			q := float64(c) / float64(total)
			p.Entropy -= q * math.Log2(q)
		}
	}
	sort.Slice(p.Top, func(i, j int) bool {
		if p.Top[i].Count != p.Top[j].Count {
			return p.Top[i].Count > p.Top[j].Count
		}
		return p.Top[i].Value < p.Top[j].Value
	})
	if topN > 0 && len(p.Top) > topN {
		p.Top = p.Top[:topN]
	}
	return p
}

// Profiles computes profiles for every attribute of the table.
func (t *EntityTable) Profiles(topN int) []AttributeProfile {
	out := make([]AttributeProfile, 0, t.Schema.Len())
	for a := 0; a < t.Schema.Len(); a++ {
		out = append(out, t.Profile(a, topN))
	}
	return out
}
