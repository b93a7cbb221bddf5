// Package dynais implements dynamic iterative-structure detection over a
// stream of MPI call-site events, in the spirit of EAR's DynAIS
// technology: without any user hints it discovers the outer loop of an
// MPI application from the repetitive sequence of MPI calls, reporting
// when a loop begins, when each new iteration starts, and when the loop
// is lost.
//
// The detector keeps a bounded window of recent event identifiers. While
// searching, it looks for the smallest period p such that the last
// minRepetitions·p events are p-periodic. Once locked, each incoming
// event is checked against the event one period back; completing a
// period reports a new iteration, and a mismatch drops back to search.
package dynais

import (
	"fmt"
)

// State is the detector's report for one event.
type State int

// Detector states.
const (
	// noLoop: no periodic structure currently detected.
	noLoop State = iota
	// inLoop: inside a detected loop, mid-iteration.
	inLoop
	// NewIteration: this event completed one full period.
	NewIteration
	// newLoop: a loop has just been detected (first lock).
	newLoop
	// EndLoop: the previously detected loop broke on this event.
	EndLoop
)

// String names the state.
func (s State) String() string {
	switch s {
	case noLoop:
		return "NO_LOOP"
	case inLoop:
		return "IN_LOOP"
	case NewIteration:
		return "NEW_ITERATION"
	case newLoop:
		return "NEW_LOOP"
	case EndLoop:
		return "END_LOOP"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// minRepetitions is how many consecutive periods must match before the
// detector locks onto a loop.
const minRepetitions = 3

// Detector detects periodic event streams. Construct with New.
type Detector struct {
	maxPeriod int
	// window holds the most recent events in one buffer allocated at
	// the first Push and never grown: when it fills, the newest
	// minRepetitions·maxPeriod−1 events are copied down to its front.
	// That tail is all detection ever reads, so a detector that never
	// sees an event costs nothing and one that does never allocates
	// again.
	window []uint32
	locked bool
	period int
	phase  int // events seen since the last iteration boundary
}

// New returns a detector able to find periods up to maxPeriod events.
func New(maxPeriod int) (*Detector, error) {
	if maxPeriod < 1 {
		return nil, fmt.Errorf("dynais: max period must be >= 1, got %d", maxPeriod)
	}
	return &Detector{maxPeriod: maxPeriod}, nil
}

// Period returns the detected period length, or 0 when not locked.
func (d *Detector) Period() int {
	if !d.locked {
		return 0
	}
	return d.period
}

// Locked reports whether a loop is currently detected.
func (d *Detector) Locked() bool { return d.locked }

// Push consumes one event and returns the resulting state.
func (d *Detector) Push(ev uint32) State {
	if len(d.window) == cap(d.window) {
		if d.window == nil {
			d.window = make([]uint32, 0, d.maxPeriod*(minRepetitions+1)+1)
		} else {
			keep := d.maxPeriod*minRepetitions - 1
			copy(d.window, d.window[len(d.window)-keep:])
			d.window = d.window[:keep]
		}
	}
	d.window = append(d.window, ev)

	if d.locked {
		// The new event must match the event one period back.
		idx := len(d.window) - 1 - d.period
		if idx >= 0 && d.window[idx] == ev {
			d.phase++
			if d.phase == d.period {
				d.phase = 0
				return NewIteration
			}
			return inLoop
		}
		// Loop broken: drop the lock but keep the window so that a new
		// structure can be found quickly.
		d.locked = false
		d.period = 0
		d.phase = 0
		return EndLoop
	}

	if p := d.findPeriod(); p > 0 {
		d.locked = true
		d.period = p
		d.phase = 0
		return newLoop
	}
	return noLoop
}

// findPeriod searches for the smallest period p whose last
// minRepetitions·p events are p-periodic. Periods of length 1 require a
// run of identical events.
func (d *Detector) findPeriod() int {
	n := len(d.window)
	for p := 1; p <= d.maxPeriod; p++ {
		need := p * minRepetitions
		if n < need {
			// Larger periods need even more history.
			return 0
		}
		ok := true
		base := n - need
		for i := base + p; i < n; i++ {
			if d.window[i] != d.window[i-p] {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	return 0
}

// reset clears all detector state.
func (d *Detector) reset() {
	d.window = d.window[:0]
	d.locked = false
	d.period = 0
	d.phase = 0
}
