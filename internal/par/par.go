// Package par provides the bounded fan-out primitives behind the
// parallel experiment engine: a work-stealing ForEach over an index
// range and an order-preserving Map, both capped at a caller-chosen
// worker count.
//
// Parallelism here never changes results. Every unit of work writes
// only to its own slot, outputs are assembled in input order, and all
// simulation randomness is derived from explicit per-run seeds — so a
// computation scheduled over eight workers is byte-identical to the
// same computation run sequentially. A limit of one (or less) runs the
// work inline on the calling goroutine, which keeps sequential paths
// free of goroutine overhead and trivially deterministic.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach invokes fn(0) … fn(n-1), running at most limit invocations
// concurrently. With limit <= 1 the calls happen inline, in order.
// Otherwise the calling goroutine is one of the limit workers, so
// limit-1 goroutines are started. On error the remaining unstarted
// indices are skipped and the error of the lowest-indexed failed call
// is returned.
func ForEach(limit, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if limit <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if limit > n {
		limit = n
	}

	f := &fanOut{fn: fn, n: n, errIdx: n}
	f.wg.Add(limit)
	for w := 1; w < limit; w++ {
		go f.work()
	}
	f.work()
	f.wg.Wait()
	return f.first
}

// fanOut is the state one parallel ForEach shares between its workers.
// It is the call's one heap object; each started goroutine adds its
// closure.
type fanOut struct {
	fn     func(i int) error
	n      int
	next   atomic.Int64
	failed atomic.Bool
	wg     sync.WaitGroup

	mu     sync.Mutex
	errIdx int
	first  error
}

// work claims indices until they run out or a call fails.
func (f *fanOut) work() {
	defer f.wg.Done()
	for {
		i := int(f.next.Add(1)) - 1
		if i >= f.n || f.failed.Load() {
			return
		}
		if err := f.fn(i); err != nil {
			f.mu.Lock()
			if i < f.errIdx {
				f.errIdx, f.first = i, err
			}
			f.mu.Unlock()
			f.failed.Store(true)
			return
		}
	}
}

// Map applies fn to every item, running at most limit applications
// concurrently, and returns the results in input order. On error the
// partial results are discarded and the error of the lowest-indexed
// failed item is returned.
func Map[T, R any](limit int, items []T, fn func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := ForEach(limit, len(items), func(i int) error {
		r, err := fn(items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
