package par

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, limit := range []int{0, 1, 2, 4, 100} {
		const n = 37
		var hits [n]atomic.Int64
		if err := ForEach(limit, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("limit %d: index %d ran %d times", limit, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const limit = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	err := ForEach(limit, 64, func(i int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > limit {
		t.Errorf("observed %d concurrent calls, limit %d", p, limit)
	}
}

func TestForEachReturnsLowestIndexedError(t *testing.T) {
	// Every index fails; the reported error must be a deterministic
	// function of the input, not of goroutine scheduling.
	for _, limit := range []int{1, 4} {
		err := ForEach(limit, 16, func(i int) error {
			return fmt.Errorf("fail %d", i)
		})
		if err == nil || err.Error() != "fail 0" {
			t.Errorf("limit %d: err = %v, want fail 0", limit, err)
		}
	}
}

func TestForEachSkipsAfterFailure(t *testing.T) {
	var ran atomic.Int64
	err := ForEach(2, 1000, func(i int) error {
		ran.Add(1)
		if i < 2 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n == 1000 {
		t.Error("all indices ran despite early failure")
	}
}

func nop(int) error { return nil }

// A parallel call costs its shared state plus one closure per started
// goroutine: limit allocations, the calling goroutine being a worker.
func TestForEachAllocatesOnePerWorker(t *testing.T) {
	for _, limit := range []int{2, 4} {
		got := testing.AllocsPerRun(200, func() {
			if err := ForEach(limit, 8, nop); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(limit) {
			t.Errorf("ForEach(%d, 8, nop): %v allocations, want <= %d", limit, got, limit)
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(8, items, func(v int) (int, error) { return v * v, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapError(t *testing.T) {
	_, err := Map(4, []int{0, 1, 2}, func(v int) (int, error) {
		if v == 1 {
			return 0, errors.New("boom")
		}
		return v, nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}
