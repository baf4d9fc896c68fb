package sessionstore

import (
	"testing"

	"subdex/internal/leaktest"
)

// TestMain fails the package if a goroutine of this module outlives its
// tests: whatever a test starts, it stops and joins.
func TestMain(m *testing.M) { leaktest.Main(m) }
