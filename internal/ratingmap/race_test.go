//go:build race

package ratingmap

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is Put into it, on purpose, so a test pinning "the pool makes this
// allocation-free" cannot hold there.
const raceEnabled = true
