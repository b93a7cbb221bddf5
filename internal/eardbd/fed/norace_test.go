//go:build !race

package fed

// raceOn reports a race-detector build (race_test.go).
const raceOn = false
