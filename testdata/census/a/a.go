// Package a holds one export of each kind the census must tell apart.
package a

// Planted is exported, and nothing calls it: flagged.
func Planted() {}

// Unused is exported, and nothing calls it, but an exception covers it.
func Unused() {}

// Called is called from another package.
func Called() int { return helper() }

func helper() int { return 1 }

// Shape is called through, never on a concrete type.
type Shape interface{ Area() float64 }

// T satisfies Shape and fmt.Stringer.
type T struct{}

// Area is reached only through Shape.
func (T) Area() float64 { return 0 }

// String is reached only through fmt, which the census cannot see.
func (T) String() string { return "T" }

// Uncalled satisfies no interface, and nothing calls it: flagged.
func (T) Uncalled() {}

// Lit's field is set by a composite literal and read by nothing.
type Lit struct{ Set int }

// Lonely's field is neither set nor read: flagged.
type Lonely struct{ Unset int }
