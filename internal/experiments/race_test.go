//go:build race

package experiments

// raceOn reports a race-detector build, where sync.Pool drops items at
// random: a pooled sim node is then rebuilt at random too.
const raceOn = true
