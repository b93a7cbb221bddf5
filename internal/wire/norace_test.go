//go:build !race

package wire

// raceOn reports a race-detector build (race_test.go).
const raceOn = false
