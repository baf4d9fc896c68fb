package query

import (
	"fmt"
	"strings"
)

// OpKind classifies an exploration operation relative to the current
// description (§3.2.1, §4.3).
type OpKind int

const (
	// Filter adds one attribute-value pair (drill-down).
	Filter OpKind = iota
	// Generalize removes one attribute-value pair (roll-up).
	Generalize
	// Change re-binds one attribute to a different value (sideways move).
	Change
	// FilterGeneralize adds one pair and removes another (the paper allows
	// candidates differing in at most 2 attribute-value pairs).
	FilterGeneralize
	// FilterChange adds one pair and changes another.
	FilterChange
)

func (k OpKind) String() string {
	switch k {
	case Filter:
		return "filter"
	case Generalize:
		return "generalize"
	case Change:
		return "change"
	case FilterGeneralize:
		return "filter+generalize"
	case FilterChange:
		return "filter+change"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Operation is a next-step operation q: the target description plus a
// human-readable account of how it differs from the current one.
type Operation struct {
	Kind   OpKind
	Target Description
	// Added/Removed/Changed record the delta for display; Changed holds the
	// old selector and ChangedTo the new value.
	Added     *Selector
	Removed   *Selector
	Changed   *Selector
	ChangedTo string
}

// String renders the operation for the recommendation list.
func (op Operation) String() string {
	var parts []string
	if op.Added != nil {
		parts = append(parts, fmt.Sprintf("FILTER %s", *op.Added))
	}
	if op.Removed != nil {
		parts = append(parts, fmt.Sprintf("GENERALIZE drop %s", *op.Removed))
	}
	if op.Changed != nil {
		parts = append(parts, fmt.Sprintf("CHANGE %s.%s: '%s' -> '%s'",
			op.Changed.Side, op.Changed.Attr, op.Changed.Value, op.ChangedTo))
	}
	if len(parts) == 0 {
		return "NOOP"
	}
	return strings.Join(parts, "; ")
}
