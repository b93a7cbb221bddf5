//go:build !race

package sim

// raceOn reports a race-detector build (race_test.go).
const raceOn = false
