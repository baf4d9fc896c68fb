// Package querytest holds what the tests of several packages ask of a
// description.
package querytest

import "subdex/internal/query"

// EditDistance counts the minimum number of selector additions, removals,
// and value changes turning d into o. A change (same attribute, different
// value) counts 1, matching §4.3's "small adjustment" semantics.
func EditDistance(d, o query.Description) int {
	mine := make(map[string]string)
	for _, s := range d.Selectors() {
		mine[s.AttrKey()] = s.Value
	}
	theirs := make(map[string]string)
	for _, s := range o.Selectors() {
		theirs[s.AttrKey()] = s.Value
	}
	dist := 0
	for k, v := range mine {
		tv, ok := theirs[k]
		if !ok || tv != v {
			dist++ // removal or change
		}
	}
	for k := range theirs {
		if _, ok := mine[k]; !ok {
			dist++ // addition
		}
	}
	return dist
}
