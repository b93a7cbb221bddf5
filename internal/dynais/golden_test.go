package dynais

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

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
			for r := 0; r < minRepetitions+rng.Intn(8); r++ {
				evs = append(evs, pat...)
			}
		case 1: // two alternating inner loops: structure one level up
			a, b := pattern(1+rng.Intn(maxPeriod)), pattern(1+rng.Intn(maxPeriod))
			ra, rb := minRepetitions+1+rng.Intn(3), minRepetitions+1+rng.Intn(3)
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
			for r := 0; r < minRepetitions+2; r++ {
				evs = append(evs, pat...)
			}
			evs = append(evs, pat[:rng.Intn(len(pat))]...)
			evs = append(evs, 1000+uint32(rng.Intn(10)))
		case 3: // period beyond the window
			pat := pattern(maxPeriod + 1 + rng.Intn(2*maxPeriod))
			for r := 0; r < minRepetitions+1; r++ {
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

// pushDigest folds one Push's outcome into buf: every level's state
// and period, then TopLocked.
func pushDigest(buf []byte, h *Hierarchy, states []State) []byte {
	for l, st := range states {
		buf = append(buf, byte(st))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.levels[l].Period()))
	}
	lvl, period := h.TopLocked()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(lvl)))
	return binary.LittleEndian.AppendUint32(buf, uint32(period))
}

// TestHierarchyCorporaGolden feeds fresh hierarchies fuzzStream corpora
// — the four fuzz seeds' and a grid of eight seeds over five shapes —
// and hashes every level's state and period and TopLocked after every
// event. The digests were pinned while the append-and-reslice detector
// the fixed windows replaced still agreed with them event for event.
func TestHierarchyCorporaGolden(t *testing.T) {
	grid := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range []struct {
		seeds                []int64
		levels, maxPeriod, n int
		want                 uint64
	}{
		{[]int64{1}, 3, 5, 401, 0x2df8ebb08a470cd0},
		{[]int64{2}, 2, 2, 65, 0x9b54a1b7855add42},
		{[]int64{3}, 1, 17, 3001, 0x99b4ffba63d4e0c7},
		{[]int64{4}, 3, 1, 6001, 0xdbc3256b9780800a},
		{grid, 1, 1, 500, 0x421726dcd679b20d},
		{grid, 2, 4, 2000, 0x064b91ae174da5a2},
		{grid, 3, 16, 4000, 0x40dad1496d6b0933},
		{grid, 2, 64, 6000, 0x919faacfbba31dbe},
		{grid, 3, 64, 6000, 0x8e2845d296455591},
	} {
		d := fnv.New64a()
		var buf []byte
		for _, seed := range c.seeds {
			h, err := NewHierarchy(c.levels, c.maxPeriod)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range fuzzStream(rand.New(rand.NewSource(seed)), c.maxPeriod, c.n) {
				buf = pushDigest(buf[:0], h, h.Push(ev))
				d.Write(buf)
			}
		}
		if got := d.Sum64(); got != c.want {
			t.Errorf("seeds %v, %d levels, max period %d, %d events: digest %#016x, want %#016x",
				c.seeds, c.levels, c.maxPeriod, c.n, got, c.want)
		}
	}
}

// FuzzHierarchyMatchesReference feeds a fuzzStream corpus to two
// hierarchies of one shape: the reference, fresh from NewHierarchy, and
// one that first took a different corpus and was then Reset, as a
// renewed EARL library's is. After every event they must report the
// same per-level states and periods and the same TopLocked; a level's
// period must be positive exactly while it is locked and never exceed
// maxPeriod; and no window may be reallocated after its first push.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(4), uint16(400))
	f.Add(int64(2), uint8(1), uint8(1), uint16(64))
	f.Add(int64(3), uint8(3), uint8(16), uint16(3000))
	f.Add(int64(4), uint8(2), uint8(64), uint16(6000))
	f.Fuzz(func(t *testing.T, seed int64, levelsRaw, maxPeriodRaw uint8, nRaw uint16) {
		levels := 1 + int(levelsRaw)%3
		maxPeriod := 1 + int(maxPeriodRaw)%64
		n := 1 + int(nRaw)%8000
		ref, err := NewHierarchy(levels, maxPeriod)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHierarchy(levels, maxPeriod)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range fuzzStream(rand.New(rand.NewSource(^seed)), maxPeriod, n/2) {
			h.Push(ev)
		}
		h.Reset()
		var bufs [3]*uint32
		var got, want []byte
		for i, ev := range fuzzStream(rand.New(rand.NewSource(seed)), maxPeriod, n) {
			states := h.Push(ev)
			got = pushDigest(got[:0], h, states)
			want = pushDigest(want[:0], ref, ref.Push(ev))
			if string(got) != string(want) {
				t.Fatalf("event %d (%d): the reset hierarchy reports %v, the fresh one %v", i, ev, got, want)
			}
			top, topPeriod := -1, 0
			for l, st := range states {
				d := &h.levels[l]
				locked := st == newLoop || st == inLoop || st == NewIteration
				if p := d.Period(); locked != d.Locked() || locked != (p > 0) || p > maxPeriod {
					t.Fatalf("event %d level %d: state %v, locked %v, period %d", i, l, st, d.Locked(), p)
				}
				if locked {
					top, topPeriod = l, d.Period()
				}
				// A Reset window is empty but keeps its buffer.
				if w := d.window[:cap(d.window)]; len(w) > 0 {
					if bufs[l] == nil {
						bufs[l] = &w[0]
					}
					if bufs[l] != &w[0] || cap(w) != maxPeriod*(minRepetitions+1)+1 {
						t.Fatalf("event %d level %d: window reallocated (cap %d)", i, l, cap(w))
					}
				}
			}
			if lvl, p := h.TopLocked(); lvl != top || p != topPeriod {
				t.Fatalf("event %d: TopLocked (%d,%d), highest locked level (%d,%d)", i, lvl, p, top, topPeriod)
			}
		}
	})
}
