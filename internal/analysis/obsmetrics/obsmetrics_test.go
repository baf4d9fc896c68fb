package obsmetrics_test

import (
	"testing"

	"subdex/internal/analysis/analysistest"
	"subdex/internal/analysis/obsmetrics"
)

func TestObsMetrics(t *testing.T) {
	// Order matters: w's facts must be exported before w2 reshapes one of
	// its wide-event fields.
	analysistest.Run(t, "testdata", obsmetrics.Analyzer, "a", "w", "w2")
}
