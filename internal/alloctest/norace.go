//go:build !race

package alloctest

// Race reports a race-detector build (race.go).
const Race = false
