// Package par provides the bounded fan-out primitives behind the
// parallel experiment engine: a work-stealing ForEach over an index
// range capped at a caller-chosen worker count, and Split, which
// shares that count between a fan-out and the fan-outs nested in it.
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
// limit-1 goroutines are started. On error the indices above the
// lowest failed one are skipped, every index below it still runs, and
// the error of the lowest-indexed failed call is returned: the error a
// sequential run reports.
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

	f := &fanOut{fn: fn, n: n}
	f.lowest.Store(int64(n))
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
	fn   func(i int) error
	n    int
	next atomic.Int64
	wg   sync.WaitGroup

	// lowest is the lowest failed index so far (n while none has
	// failed); first is its error. Both change under mu.
	mu     sync.Mutex
	lowest atomic.Int64
	first  error
}

// work claims indices until they run out, pass a failed one, or a call
// fails. An index claimed below a failure still runs, even when the
// failure lands between its claim and its call.
func (f *fanOut) work() {
	defer f.wg.Done()
	for {
		i := f.next.Add(1) - 1
		if i >= int64(f.n) || i > f.lowest.Load() {
			return
		}
		if err := f.fn(int(i)); err != nil {
			f.mu.Lock()
			if i < f.lowest.Load() {
				f.lowest.Store(i)
				f.first = err
			}
			f.mu.Unlock()
			return
		}
	}
}

// Split shares workers between a fan-out of items and the work each
// item fans out in turn, so the two levels together stay within
// workers: wide items run at a time, and each of them gets each
// workers of its own, at least one. A fan-out of one item hands it
// every worker; one at least as wide as workers keeps every worker
// busy at its own level and hands each item one.
func Split(workers, items int) (wide, each int) {
	wide = max(1, min(items, workers))
	return wide, max(1, workers/wide)
}
