package dynais

import (
	"testing"
)

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(0, 16); err == nil {
		t.Error("expected error for zero levels")
	}
	if _, err := NewHierarchy(2, 0); err == nil {
		t.Error("expected error for zero max period")
	}
	h, err := NewHierarchy(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.levels) != 3 || len(h.Push(1)) != 3 {
		t.Errorf("levels = %d", len(h.levels))
	}
}

// feedNested emits reps outer iterations, each consisting of innerReps
// repetitions of an inner MPI pattern.
func feedNested(h *Hierarchy, inner []uint32, innerReps, outerReps int) {
	for o := 0; o < outerReps; o++ {
		for r := 0; r < innerReps; r++ {
			for _, ev := range inner {
				h.Push(ev)
			}
		}
	}
}

func TestDetectsInnerLoopAtLevelZero(t *testing.T) {
	h, err := NewHierarchy(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	feedNested(h, []uint32{1, 2, 3}, 10, 1)
	if !h.Locked(0) || h.levels[0].Period() != 3 {
		t.Errorf("level 0: locked=%v period=%d, want period 3", h.Locked(0), h.levels[0].Period())
	}
}

func TestDetectsOuterStructure(t *testing.T) {
	// Outer iteration = 4 inner-A iterations; the inner pattern locks
	// at level 0 and the stream of identical iteration tokens locks at
	// level 1 with period 1 (homogeneous outer body).
	h, err := NewHierarchy(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	feedNested(h, []uint32{10, 20, 30, 40}, 4, 8)
	if !h.Locked(1) {
		t.Fatal("level 1 never locked on homogeneous nesting")
	}
	if h.levels[1].Period() != 1 {
		t.Errorf("level 1 period = %d, want 1", h.levels[1].Period())
	}
	lvl, period := h.TopLocked()
	if lvl != 1 || period != 1 {
		t.Errorf("TopLocked = (%d,%d)", lvl, period)
	}
}

func TestDetectsAlternatingPhasesAtLevelOne(t *testing.T) {
	// Outer time step = 3 iterations of solver A then 2 of solver B:
	// level 0 relocks per phase; level 1 sees the token stream and
	// locks on the alternation.
	h, err := NewHierarchy(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	a := []uint32{1, 2, 3}
	b := []uint32{7, 8, 9, 10}
	for step := 0; step < 30; step++ {
		feedNested(h, a, 6, 1)
		feedNested(h, b, 6, 1)
	}
	if !h.Locked(1) {
		t.Fatal("level 1 never locked on alternating phases")
	}
	// Tokens alternate A...A B...B; the minimal period found must
	// divide one full A+B group's token count and be > 1 (it must see
	// both phases, not a constant stream).
	if p := h.levels[1].Period(); p < 2 {
		t.Errorf("level 1 period = %d, want >= 2 (both phases)", p)
	}
}

func TestDistinctInnerLoopsProduceDistinctTokens(t *testing.T) {
	// Same period, different events: tokens must differ.
	a := Detector{window: []uint32{1, 2, 3}, period: 3}
	b := Detector{window: []uint32{4, 5, 6}, period: 3}
	if a.patternToken() == b.patternToken() {
		t.Error("different patterns hashed to the same token")
	}
}

// TestPatternTokenCoversWholePeriod: the token must hash every event of
// the completed iteration however long the period, so two long inner
// loops that differ only in their first event stay distinguishable one
// level up. (The token window was once a fixed 256 events whatever
// maxPeriod said.)
func TestPatternTokenCoversWholePeriod(t *testing.T) {
	token := func(first uint32) uint32 {
		h, err := NewHierarchy(2, 300)
		if err != nil {
			t.Fatal(err)
		}
		inner := make([]uint32, 280)
		for i := range inner {
			inner[i] = uint32(1000 + i)
		}
		inner[0] = first
		for rep := 0; rep <= minRepetitions; rep++ {
			for _, ev := range inner {
				h.Push(ev)
			}
		}
		if h.levels[0].Period() != len(inner) {
			t.Fatalf("level 0 period = %d, want %d", h.levels[0].Period(), len(inner))
		}
		w := h.levels[1].window
		if len(w) != 1 {
			t.Fatalf("level 1 saw %d tokens, want 1", len(w))
		}
		return w[0]
	}
	if token(1) == token(2) {
		t.Error("280-event loops differing in event 0 hashed to the same level-1 token")
	}
}

func TestHierarchyReset(t *testing.T) {
	h, err := NewHierarchy(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	feedNested(h, []uint32{1, 2}, 4, 6)
	if !h.Locked(0) {
		t.Fatal("not locked before reset")
	}
	h.Reset()
	if h.Locked(0) || h.Locked(1) {
		t.Error("levels still locked after reset")
	}
	if lvl, _ := h.TopLocked(); lvl != -1 {
		t.Errorf("TopLocked after reset = %d", lvl)
	}
}

func TestHierarchyBoundsChecks(t *testing.T) {
	h, err := NewHierarchy(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h.Locked(-1) || h.Locked(5) {
		t.Error("out-of-range Locked must be false")
	}
	// Single level: iteration completions have nowhere to go but must
	// not panic.
	for i := 0; i < 50; i++ {
		h.Push(uint32(i % 2))
	}
	if !h.Locked(0) {
		t.Error("single-level hierarchy failed to lock")
	}
}

func TestPushStatesReported(t *testing.T) {
	h, err := NewHierarchy(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var sawIter0, sawLock1 bool
	for o := 0; o < 10; o++ {
		for r := 0; r < 3; r++ {
			for _, ev := range []uint32{5, 6} {
				sts := h.Push(ev)
				if len(sts) != 2 {
					t.Fatalf("states = %v", sts)
				}
				if sts[0] == NewIteration {
					sawIter0 = true
				}
				if sts[1] == newLoop || sts[1] == NewIteration {
					sawLock1 = true
				}
			}
		}
	}
	if !sawIter0 {
		t.Error("level 0 never reported an iteration")
	}
	if !sawLock1 {
		t.Error("level 1 never reported activity")
	}
}
