//go:build race

package eardbd

// raceOn reports a race-detector build. Instrumented code keeps the
// make in slices.Grow's append(s, make([]E, n)...) as an allocation of
// its own, one more each time a slice grows from nothing.
const raceOn = true
