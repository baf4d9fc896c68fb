//go:build race

package subdex_test

// raceEnabled: the deterministic experiments behind EXPERIMENTS.md's §5
// take minutes on one core, and the race detector slows them several-fold,
// past the race leg's timeout; TestExperimentsDocIsTheRun skips under it.
const raceEnabled = true
