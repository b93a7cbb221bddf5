//go:build race

package alloctest

// Race reports a race-detector build. Its instrumentation allocates on
// a schedule of its own: sync.Pool drops items at random, and the make
// in slices.Grow's append(s, make([]E, n)...) is an allocation of its
// own, one more each time a slice grows from nothing. An exact count
// holds only without it, or with the adjustment its test states.
const Race = true
