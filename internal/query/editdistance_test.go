package query_test

import (
	"testing"

	"subdex/internal/query"
	"subdex/internal/query/querytest"
)

func TestDescriptionEditDistance(t *testing.T) {
	sel := func(side query.Side, attr, value string) query.Selector {
		return query.Selector{Side: side, Attr: attr, Value: value}
	}
	a := sel(query.ReviewerSide, "gender", "F")
	b := sel(query.ItemSide, "city", "NYC")
	c := sel(query.ReviewerSide, "age", "young")
	d0 := query.MustDescription()
	d1 := query.MustDescription(a)
	d2 := query.MustDescription(a, b)
	dChanged := query.MustDescription(sel(query.ReviewerSide, "gender", "M"))

	cases := []struct {
		x, y query.Description
		want int
	}{
		{d0, d0, 0},
		{d0, d1, 1},
		{d1, d2, 1},
		{d1, dChanged, 1}, // value change counts 1
		{d2, query.MustDescription(c), 3},
		{d2, d0, 2},
	}
	for _, tc := range cases {
		if got := querytest.EditDistance(tc.x, tc.y); got != tc.want {
			t.Errorf("EditDistance(%s, %s) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
		if got := querytest.EditDistance(tc.y, tc.x); got != tc.want {
			t.Errorf("EditDistance must be symmetric for %s / %s", tc.x, tc.y)
		}
	}
}
