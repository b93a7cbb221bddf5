//go:build race

package fed

// raceOn reports a race-detector build, whose instrumentation allocates
// on a schedule of its own: an exact count holds only without it.
const raceOn = true
