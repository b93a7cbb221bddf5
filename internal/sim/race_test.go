//go:build race

package sim

// raceOn reports a race-detector build, where sync.Pool drops items at
// random: a run through nodePool then builds a new node at random.
const raceOn = true
