package dataset

import (
	"math"
	"sort"
	"testing"
)

// AttributeProfile summarizes one objective attribute: value cardinality,
// coverage, Shannon entropy of the value distribution, and the most
// frequent values.
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

func TestAttributeProfile(t *testing.T) {
	db := buildTinyDB(t)
	gi := db.Reviewers.Schema.Index("gender")
	p := db.Reviewers.Profile(gi, 0)
	if p.Name != "gender" || p.Rows != 4 || p.Missing != 0 {
		t.Fatalf("profile header wrong: %+v", p)
	}
	if p.Cardinality != 2 {
		t.Fatalf("cardinality = %d, want 2", p.Cardinality)
	}
	// 2×F, 2×M: entropy exactly 1 bit.
	if p.Entropy < 0.999 || p.Entropy > 1.001 {
		t.Fatalf("entropy = %v, want 1", p.Entropy)
	}
	if len(p.Top) != 2 || p.Top[0].Count != 2 {
		t.Fatalf("top values wrong: %v", p.Top)
	}
	// Multi-valued attribute counts per value; topN truncates.
	ci := db.Items.Schema.Index("cuisine")
	pc := db.Items.Profile(ci, 3)
	if pc.Kind != MultiValued || len(pc.Top) != 3 {
		t.Fatalf("cuisine profile: %+v", pc)
	}
	if pc.Cardinality < 7 { // 7 distinct cuisines in the fixture
		t.Fatalf("cuisine cardinality = %d", pc.Cardinality)
	}
}

func TestAttributeProfileMissing(t *testing.T) {
	tab := NewEntityTable("r", testSchema(t))
	tab.AppendRow("u1", map[string]string{"gender": "F"}, nil)
	tab.AppendRow("u2", nil, nil)
	p := tab.Profile(tab.Schema.Index("gender"), 0)
	if p.Missing != 1 || p.Cardinality != 1 {
		t.Fatalf("missing handling wrong: %+v", p)
	}
	// Single-valued attribute: zero entropy.
	if p.Entropy != 0 {
		t.Fatalf("entropy = %v, want 0", p.Entropy)
	}
}
