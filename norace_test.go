//go:build !race

package subdex_test

const raceEnabled = false
