package alloctest

import (
	"runtime"
	"runtime/debug"
	"testing"
)

var sink []byte

// TestLeast: Count sees one 4 KiB slice as one object of 4,096 bytes,
// and Least takes each count's minimum on its own, on one P, and gives
// the P count back.
func TestLeast(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if a := Least(5, func() Allocs { return Count(func() { sink = make([]byte, 4096) }) }); a != (Allocs{1, 4096}) {
		t.Errorf("one 4 KiB slice: %+v, want {1 4096}", a)
	}
	rounds := []Allocs{{5, 50}, {3, 200}, {4, 100}}
	if a := Least(3, func() Allocs {
		if p := runtime.GOMAXPROCS(0); p != 1 {
			t.Errorf("a round ran on %d Ps, want 1", p)
		}
		a := rounds[0]
		rounds = rounds[1:]
		return a
	}); a != (Allocs{3, 50}) {
		t.Errorf("least of {5 50} {3 200} {4 100}: %+v, want {3 50}", a)
	}
	if p := runtime.GOMAXPROCS(0); p != 2 {
		t.Errorf("GOMAXPROCS %d after Least, want 2 back", p)
	}
}

// TestHoldRestores: Hold turns the collector off and pins one P for the
// test that calls it, and its cleanup gives both back. A collector left
// off would change every later test in the binary.
func TestHoldRestores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(150))
	settings := func() (gc, procs int) {
		gc = debug.SetGCPercent(-1)
		debug.SetGCPercent(gc)
		return gc, runtime.GOMAXPROCS(0)
	}
	held := false
	t.Run("held", func(t *testing.T) {
		Hold(t)
		held = true
		if gc, p := settings(); gc != -1 || p != 1 {
			t.Errorf("held: GC percent %d on %d Ps, want -1 on 1", gc, p)
		}
	})
	if held == Race {
		t.Errorf("the held test ran: %v, want %v (skipped only under -race)", held, !Race)
	}
	if gc, p := settings(); gc != 150 || p != 2 {
		t.Errorf("after the held test: GC percent %d on %d Ps, want 150 on 2", gc, p)
	}
}
