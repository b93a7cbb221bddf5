package grouped

import "sync"

// Shared is a Store its owner writes under its lock and readers may pin
// to walk without it. A write that meets a pin first swaps in a Clone of
// the rows (two allocations, copy-on-write) and writes there, so pinned
// rows are never written again, and a pin during which nothing is
// written costs nothing. The owner's lock guards a Shared: Rows and
// Writable are called under it, Pin and Release take it.
type Shared[R comparable, S any] struct {
	rows *Store[R, S]
	pins int // readers holding rows pinned
}

// Share starts sharing rows.
func Share[R comparable, S any](rows *Store[R, S]) Shared[R, S] {
	return Shared[R, S]{rows: rows}
}

// Rows returns the current rows, for reading under the owner's lock.
func (sh *Shared[R, S]) Rows() *Store[R, S] { return sh.rows }

// Writable returns the rows for writing: a clone of them, swapped in,
// if a reader has them pinned.
func (sh *Shared[R, S]) Writable() *Store[R, S] {
	if sh.pins > 0 {
		sh.rows, sh.pins = sh.rows.Clone(), 0
	}
	return sh.rows
}

// Pin returns the current rows for reading without mu, the owner's
// lock, until Release.
func (sh *Shared[R, S]) Pin(mu sync.Locker) Pinned[R, S] {
	mu.Lock()
	defer mu.Unlock()
	sh.pins++
	return Pinned[R, S]{sh: sh, mu: mu, rows: sh.rows}
}

// Pinned is a Shared's rows as they stood when pinned.
type Pinned[R comparable, S any] struct {
	sh   *Shared[R, S]
	mu   sync.Locker
	rows *Store[R, S]
}

// Len returns the number of pinned records.
func (p Pinned[R, S]) Len() int { return p.rows.Len() }

// Walk is the pinned rows' Walk. The pointers are read-only and valid
// until Release.
func (p Pinned[R, S]) Walk(fn func(*R)) { p.rows.Walk(fn) }

// Release ends the pin: the owner's writes stop cloning for it.
func (p Pinned[R, S]) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sh.rows == p.rows {
		p.sh.pins--
	}
}
