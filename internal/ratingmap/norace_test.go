//go:build !race

package ratingmap

const raceEnabled = false
