package dynais

import (
	"math/rand"
	"testing"
)

// refDetector and refHierarchy are the append-and-reslice detector and
// hierarchy as they stood before the windows became fixed buffers, kept
// verbatim as the oracle for FuzzHierarchyMatchesReference. The only
// behavioural difference allowed is the one the fixed windows repair:
// refHierarchy hashes at most 256 events into a token, so the two agree
// only for maxPeriod <= 256 — the fuzzer stays below that.
type refDetector struct {
	maxPeriod int
	window    []uint32
	locked    bool
	period    int
	phase     int
}

func (d *refDetector) Period() int {
	if !d.locked {
		return 0
	}
	return d.period
}

func (d *refDetector) Push(ev uint32) State {
	d.window = append(d.window, ev)
	if maxLen := d.maxPeriod*(MinRepetitions+1) + 1; len(d.window) > maxLen {
		d.window = d.window[len(d.window)-maxLen:]
	}
	if d.locked {
		idx := len(d.window) - 1 - d.period
		if idx >= 0 && d.window[idx] == ev {
			d.phase++
			if d.phase == d.period {
				d.phase = 0
				return NewIteration
			}
			return InLoop
		}
		d.locked = false
		d.period = 0
		d.phase = 0
		return EndLoop
	}
	if p := d.findPeriod(); p > 0 {
		d.locked = true
		d.period = p
		d.phase = 0
		return NewLoop
	}
	return NoLoop
}

func (d *refDetector) findPeriod() int {
	n := len(d.window)
	for p := 1; p <= d.maxPeriod; p++ {
		need := p * MinRepetitions
		if n < need {
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

type refHierarchy struct {
	levels []*refDetector
	recent [][]uint32
}

func newRefHierarchy(levels, maxPeriod int) *refHierarchy {
	h := &refHierarchy{levels: make([]*refDetector, levels), recent: make([][]uint32, levels)}
	for i := range h.levels {
		h.levels[i] = &refDetector{maxPeriod: maxPeriod}
	}
	return h
}

func (h *refHierarchy) Push(ev uint32) []State {
	out := make([]State, len(h.levels))
	for i := range out {
		out[i] = NoLoop
		if h.levels[i].locked {
			out[i] = InLoop
		}
	}
	h.push(0, ev, out)
	return out
}

func (h *refHierarchy) push(level int, ev uint32, out []State) {
	d := h.levels[level]
	h.recent[level] = append(h.recent[level], ev)
	if len(h.recent[level]) > 4*64 {
		h.recent[level] = h.recent[level][len(h.recent[level])-4*64:]
	}
	st := d.Push(ev)
	out[level] = st
	if st != NewIteration || level+1 >= len(h.levels) {
		return
	}
	buf, period := h.recent[level], d.Period()
	if period > len(buf) {
		period = len(buf)
	}
	hash := uint32(2166136261)
	for _, e := range buf[len(buf)-period:] {
		hash = (hash ^ e) * 16777619
	}
	h.push(level+1, hash, out)
}

func (h *refHierarchy) TopLocked() (level, period int) {
	for i := len(h.levels) - 1; i >= 0; i-- {
		if h.levels[i].locked {
			return i, h.levels[i].Period()
		}
	}
	return -1, 0
}

// fuzzStream turns a seed into an event stream made of the shapes that
// matter: clean loops, nested loops (an inner pattern repeated, then a
// different one), loops broken by stray events, periods longer than
// maxPeriod (never lockable) and plain noise.
func fuzzStream(rng *rand.Rand, maxPeriod, n int) []uint32 {
	pattern := func(p int) []uint32 {
		out := make([]uint32, p)
		for i := range out {
			out[i] = uint32(rng.Intn(6)) // small alphabet: sub-periods happen
		}
		return out
	}
	var evs []uint32
	for len(evs) < n {
		switch rng.Intn(5) {
		case 0: // clean loop
			pat := pattern(1 + rng.Intn(maxPeriod))
			for r := 0; r < MinRepetitions+rng.Intn(8); r++ {
				evs = append(evs, pat...)
			}
		case 1: // two alternating inner loops: structure one level up
			a, b := pattern(1+rng.Intn(maxPeriod)), pattern(1+rng.Intn(maxPeriod))
			ra, rb := MinRepetitions+1+rng.Intn(3), MinRepetitions+1+rng.Intn(3)
			for o := 0; o < 2+rng.Intn(6); o++ {
				for r := 0; r < ra; r++ {
					evs = append(evs, a...)
				}
				for r := 0; r < rb; r++ {
					evs = append(evs, b...)
				}
			}
		case 2: // loop broken by a stray event mid-iteration
			pat := pattern(1 + rng.Intn(maxPeriod))
			for r := 0; r < MinRepetitions+2; r++ {
				evs = append(evs, pat...)
			}
			evs = append(evs, pat[:rng.Intn(len(pat))]...)
			evs = append(evs, 1000+uint32(rng.Intn(10)))
		case 3: // period beyond the window
			pat := pattern(maxPeriod + 1 + rng.Intn(2*maxPeriod))
			for r := 0; r < MinRepetitions+1; r++ {
				evs = append(evs, pat...)
			}
		case 4: // noise
			for k := rng.Intn(3 * maxPeriod); k >= 0; k-- {
				evs = append(evs, rng.Uint32())
			}
		}
	}
	return evs[:n]
}

// FuzzHierarchyMatchesReference drives the fixed-window hierarchy and
// the reference with the same stream and demands identical per-level
// states after every event, identical periods and TopLocked, and a
// window that is never reallocated after its first push.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(4), uint16(400))
	f.Add(int64(2), uint8(1), uint8(1), uint16(64))
	f.Add(int64(3), uint8(3), uint8(16), uint16(3000))
	f.Add(int64(4), uint8(2), uint8(64), uint16(6000))
	f.Fuzz(func(t *testing.T, seed int64, levelsRaw, maxPeriodRaw uint8, nRaw uint16) {
		levels := 1 + int(levelsRaw)%3
		maxPeriod := 1 + int(maxPeriodRaw)%64
		n := 1 + int(nRaw)%8000
		h, err := NewHierarchy(levels, maxPeriod)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefHierarchy(levels, maxPeriod)
		var bufs [3]*uint32
		for i, ev := range fuzzStream(rand.New(rand.NewSource(seed)), maxPeriod, n) {
			got, want := h.Push(ev), ref.Push(ev)
			for l := range want {
				if got[l] != want[l] {
					t.Fatalf("event %d (%d) level %d: state %v, reference %v", i, ev, l, got[l], want[l])
				}
				if h.Period(l) != ref.levels[l].Period() {
					t.Fatalf("event %d level %d: period %d, reference %d", i, l, h.Period(l), ref.levels[l].Period())
				}
				if w := h.levels[l].window; w != nil {
					if bufs[l] == nil {
						bufs[l] = &w[0]
					}
					if bufs[l] != &w[0] || cap(w) != maxPeriod*(MinRepetitions+1)+1 {
						t.Fatalf("event %d level %d: window reallocated (cap %d)", i, l, cap(w))
					}
				}
			}
			gl, gp := h.TopLocked()
			wl, wp := ref.TopLocked()
			if gl != wl || gp != wp {
				t.Fatalf("event %d: TopLocked (%d,%d), reference (%d,%d)", i, gl, gp, wl, wp)
			}
		}
	})
}
