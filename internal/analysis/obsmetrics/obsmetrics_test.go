package obsmetrics_test

import (
	"testing"

	"subdex/internal/analysis/analysistest"
	"subdex/internal/analysis/obsmetrics"
)

func TestObsMetrics(t *testing.T) {
	analysistest.Run(t, "testdata", obsmetrics.Analyzer, "a", "w")
}
