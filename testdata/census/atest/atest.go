// Package atest is test support: only tests import it, so its exports
// are not counted.
package atest

// Helper is reached by no program.
func Helper() {}
