package dynais

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewErrors(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("expected error for zero max period")
	}
	if _, err := New(-3); err == nil {
		t.Error("expected error for negative max period")
	}
}

func TestDetectsSimpleLoop(t *testing.T) {
	d, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	pattern := []uint32{10, 20, 30, 40}
	var lockEvent, iterations int
	for rep := 0; rep < 10; rep++ {
		for i, ev := range pattern {
			st := d.Push(ev)
			switch st {
			case newLoop:
				lockEvent = rep*len(pattern) + i
			case NewIteration:
				iterations++
			}
		}
	}
	if !d.Locked() {
		t.Fatal("detector never locked")
	}
	if d.Period() != len(pattern) {
		t.Errorf("period = %d, want %d", d.Period(), len(pattern))
	}
	// Lock must happen after minRepetitions patterns.
	if lockEvent >= 4*len(pattern) {
		t.Errorf("locked too late: event %d", lockEvent)
	}
	// After locking, every full pattern yields one NewIteration.
	if iterations < 5 {
		t.Errorf("iterations = %d, want >= 5", iterations)
	}
}

func TestPeriodOneRun(t *testing.T) {
	d, _ := New(8)
	var locked bool
	for i := 0; i < 10; i++ {
		st := d.Push(7)
		if st == newLoop {
			locked = true
		}
	}
	if !locked || d.Period() != 1 {
		t.Errorf("run of identical events: locked=%v period=%d, want period 1", locked, d.Period())
	}
}

func TestPrefersSmallestPeriod(t *testing.T) {
	// 1,2,1,2,... is period 2, not 4.
	d, _ := New(16)
	for i := 0; i < 12; i++ {
		d.Push(uint32(1 + i%2))
	}
	if d.Period() != 2 {
		t.Errorf("period = %d, want 2", d.Period())
	}
}

func TestLoopBreakAndRelock(t *testing.T) {
	d, _ := New(8)
	pattern := []uint32{1, 2, 3}
	for rep := 0; rep < 5; rep++ {
		for _, ev := range pattern {
			d.Push(ev)
		}
	}
	if !d.Locked() {
		t.Fatal("not locked")
	}
	// Break the loop.
	st := d.Push(99)
	if st != EndLoop {
		t.Errorf("state on break = %v, want END_LOOP", st)
	}
	if d.Locked() {
		t.Error("still locked after break")
	}
	// A new structure locks again.
	newPat := []uint32{5, 6}
	var relocked bool
	for rep := 0; rep < 6; rep++ {
		for _, ev := range newPat {
			if d.Push(ev) == newLoop {
				relocked = true
			}
		}
	}
	if !relocked || d.Period() != 2 {
		t.Errorf("relock failed: locked=%v period=%d", d.Locked(), d.Period())
	}
}

func TestNoFalseLockOnRandomStream(t *testing.T) {
	// A stream of unique events must never lock.
	d, _ := New(16)
	for i := 0; i < 500; i++ {
		if st := d.Push(uint32(i)); st != noLoop {
			t.Fatalf("event %d: state %v on strictly increasing stream", i, st)
		}
	}
}

func TestIterationCadenceExact(t *testing.T) {
	// Once locked, NewIteration fires exactly once per period.
	d, _ := New(32)
	pattern := []uint32{11, 22, 33, 44, 55}
	// Prime to lock.
	for rep := 0; rep < minRepetitions; rep++ {
		for _, ev := range pattern {
			d.Push(ev)
		}
	}
	if !d.Locked() {
		t.Fatal("not locked after priming")
	}
	iterations := 0
	const reps = 20
	for rep := 0; rep < reps; rep++ {
		for _, ev := range pattern {
			if d.Push(ev) == NewIteration {
				iterations++
			}
		}
	}
	if iterations != reps {
		t.Errorf("iterations = %d, want %d", iterations, reps)
	}
}

func TestDetectsAnyPeriodProperty(t *testing.T) {
	// For any period p in [1,12] and any event alphabet, a clean
	// periodic stream must lock with the right period (or a divisor
	// when the random pattern is itself periodic).
	fn := func(seed int64, pRaw uint8) bool {
		p := int(pRaw%12) + 1
		rng := rand.New(rand.NewSource(seed))
		pattern := make([]uint32, p)
		for i := range pattern {
			pattern[i] = rng.Uint32()
		}
		d, err := New(16)
		if err != nil {
			return false
		}
		for rep := 0; rep < minRepetitions+4; rep++ {
			for _, ev := range pattern {
				d.Push(ev)
			}
		}
		if !d.Locked() {
			return false
		}
		// Detected period must divide the true period (the random
		// pattern may repeat internally).
		return p%d.Period() == 0
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestReset(t *testing.T) {
	d, _ := New(8)
	for i := 0; i < 10; i++ {
		d.Push(uint32(1 + i%2))
	}
	if !d.Locked() {
		t.Fatal("not locked")
	}
	d.reset()
	if d.Locked() || d.Period() != 0 {
		t.Error("reset did not clear lock")
	}
	if st := d.Push(1); st != noLoop {
		t.Errorf("state after reset = %v, want NO_LOOP", st)
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		noLoop: "NO_LOOP", inLoop: "IN_LOOP", NewIteration: "NEW_ITERATION",
		newLoop: "NEW_LOOP", EndLoop: "END_LOOP", State(42): "State(42)",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestWindowAllocatedOnceAtFirstPush pins the window's bound: nothing
// before the first event, one buffer of (minRepetitions+1)·maxPeriod+1
// events from then on, whatever the stream does.
func TestWindowAllocatedOnceAtFirstPush(t *testing.T) {
	d, _ := New(4)
	if d.window != nil {
		t.Fatal("window allocated before the first push")
	}
	d.Push(0)
	want, first := 4*(minRepetitions+1)+1, &d.window[0]
	for i := 1; i < 10000; i++ {
		d.Push(uint32(i % 3))
		if i%1000 == 999 {
			d.Push(uint32(i)) // break the loop now and then
		}
		if cap(d.window) != want || &d.window[0] != first {
			t.Fatalf("push %d: window cap %d (want %d) or buffer moved", i, cap(d.window), want)
		}
	}
	d.reset()
	d.Push(1)
	if &d.window[0] != first {
		t.Error("Reset dropped the window buffer")
	}
}

// TestPushDoesNotAllocate guards the event path: once the windows
// exist, neither a searching nor a locked detector or hierarchy touches
// the heap.
func TestPushDoesNotAllocate(t *testing.T) {
	d, _ := New(64)
	h, _ := NewHierarchy(2, 64)
	i := uint32(0)
	for _, tc := range []struct {
		name string
		next func() uint32
	}{
		{"unlocked", func() uint32 { i++; return i }},
		{"locked", func() uint32 { i++; return i % 8 }},
	} {
		for k := 0; k < 1000; k++ {
			ev := tc.next()
			d.Push(ev)
			h.Push(ev)
		}
		if (tc.name == "locked") != (d.Locked() && h.Locked(0) && h.Locked(1)) {
			t.Fatalf("%s: detector locked=%v hierarchy locked=%v/%v", tc.name, d.Locked(), h.Locked(0), h.Locked(1))
		}
		if n := testing.AllocsPerRun(2000, func() { d.Push(tc.next()) }); n != 0 {
			t.Errorf("%s: Detector.Push allocates %v per event", tc.name, n)
		}
		if n := testing.AllocsPerRun(2000, func() { h.Push(tc.next()) }); n != 0 {
			t.Errorf("%s: Hierarchy.Push allocates %v per event", tc.name, n)
		}
	}
}

// BenchmarkDynaisPush is one event into a detector locked on a period-8
// loop.
func BenchmarkDynaisPush(b *testing.B) {
	d, err := New(64)
	if err != nil {
		b.Fatal(err)
	}
	pattern := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(pattern[i%len(pattern)])
	}
}
