//go:build !race

package experiments

// raceOn reports a race-detector build (race_test.go).
const raceOn = false
