// Command subdexvet is SubDEx's project-invariant checker: the four
// analyzers that encode disciplines only a static check can see (see
// internal/analysis/... and DESIGN.md "Invariants as analyzers"), run
// over the module in the current directory by one in-process driver.
//
//	go run ./cmd/subdexvet ./...
//	go run ./cmd/subdexvet help
//
// Exit status: 0 clean, 1 driver error, 2 findings.
package main

import (
	"subdex/internal/analysis/ctxflow"
	"subdex/internal/analysis/framework"
	"subdex/internal/analysis/lockblock"
	"subdex/internal/analysis/lockorder"
	"subdex/internal/analysis/obsmetrics"
)

func main() {
	framework.Main([]*framework.Analyzer{
		obsmetrics.Analyzer,
		ctxflow.Analyzer,
		lockblock.Analyzer,
		lockorder.Analyzer,
	})
}
