package dynais

import (
	"fmt"
)

// Hierarchy stacks detectors the way DynAIS's multi-level windows do:
// level 0 consumes raw MPI events; whenever level k completes an
// iteration, a token summarising that iteration (a hash of its event
// pattern) is fed to level k+1. Nested application structure — inner
// solver loops inside outer time steps — then surfaces as a lock at a
// higher level, whose period counts inner-loop iterations per outer
// iteration.
type Hierarchy struct {
	levels []Detector
	// states is the per-level report of the last Push, owned by the
	// hierarchy so delivering an event allocates nothing.
	states []State
}

// NewHierarchy builds a detector stack. levels must be at least 1;
// maxPeriod bounds period detection at every level.
func NewHierarchy(levels, maxPeriod int) (*Hierarchy, error) {
	if levels < 1 {
		return nil, fmt.Errorf("dynais: hierarchy needs at least one level, got %d", levels)
	}
	d, err := New(maxPeriod)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		levels: make([]Detector, levels),
		states: make([]State, levels),
	}
	for i := range h.levels {
		h.levels[i] = *d
	}
	return h, nil
}

// Push consumes one raw event and returns the state of every level
// after propagation (index 0 = raw level). The returned slice is the
// hierarchy's own buffer: it is valid until the next Push and must not
// be modified.
func (h *Hierarchy) Push(ev uint32) []State {
	for i := range h.states {
		h.states[i] = noLoop
		if h.levels[i].Locked() {
			h.states[i] = inLoop
		}
	}
	h.push(0, ev)
	return h.states
}

// push feeds one event into the given level, propagating iteration
// completions upward.
func (h *Hierarchy) push(level int, ev uint32) {
	d := &h.levels[level]
	st := d.Push(ev)
	h.states[level] = st
	if st != NewIteration {
		return
	}
	if level+1 >= len(h.levels) {
		return
	}
	// Token: hash of the completed iteration's event pattern, so two
	// different inner loops of equal length produce distinct tokens.
	h.push(level+1, d.patternToken())
}

// patternToken hashes the events of the iteration just completed: the
// last period events of the window, which always holds at least
// minRepetitions periods while locked.
func (d *Detector) patternToken() uint32 {
	hash := uint32(2166136261)
	for _, e := range d.window[len(d.window)-d.period:] {
		hash = (hash ^ e) * 16777619
	}
	return hash
}

// Locked reports whether the given level currently has a lock.
func (h *Hierarchy) Locked(level int) bool {
	if level < 0 || level >= len(h.levels) {
		return false
	}
	return h.levels[level].Locked()
}

// TopLocked returns the highest locked level and its period, or (-1, 0)
// when nothing is locked. Policies prefer the highest level: it tracks
// the outermost repetitive structure, whose iterations are the natural
// signature boundary.
func (h *Hierarchy) TopLocked() (level, period int) {
	for i := len(h.levels) - 1; i >= 0; i-- {
		if h.levels[i].Locked() {
			return i, h.levels[i].Period()
		}
	}
	return -1, 0
}

// Reset clears every level.
func (h *Hierarchy) Reset() {
	for i := range h.levels {
		h.levels[i].reset()
	}
}
