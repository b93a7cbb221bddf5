//go:build !race

package eardbd

// raceOn reports a race-detector build (race_test.go).
const raceOn = false
