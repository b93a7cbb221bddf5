package eardbd

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// pipe is the in-process transport Front.Dial hands out: net.Pipe's
// contract — synchronous, full duplex, no buffering, so a Write returns
// only once the peer has read all of it — in one allocation. Both ends,
// their deadlines and the one mutex and condition variable every
// hand-off goes through live in it; net.Pipe spends twelve allocations
// on the same (two ends, six channels, four deadline channels).
//
// Errors follow net.Pipe: Read after the peer closed returns io.EOF;
// Read or Write after the end's own Close, and Write to a closed peer,
// return io.ErrClosedPipe; an expired deadline returns a *net.OpError
// that is os.ErrDeadlineExceeded and a Timeout. Where net.Pipe picks at
// random between ready outcomes, the pipe decides in that order, so an
// end that has closed never delivers the bytes its Write still offered.
type pipe struct {
	mu   sync.Mutex
	cond sync.Cond // on mu; broadcast by every change a waiter acts on
	ends [2]pipeEnd
}

// pipeEnd is one end of a pipe, the net.Conn its holder uses.
type pipeEnd struct {
	p    *pipe
	peer *pipeEnd

	closed  bool
	writing bool   // a Write is in progress; concurrent Writes take turns
	offered bool   // out is on offer to the peer's Read
	out     []byte // what the Write in progress has not had read yet

	rd, wr deadline
}

// deadline is one direction's deadline on one end. Its timer is made by
// the first arm into the future and Reset by every later one, so
// re-arming allocates nothing; expired is set only once the clock has
// reached at, which keeps a timer that fires for an earlier arm from
// expiring a deadline moved since.
type deadline struct {
	at      time.Time
	timer   *time.Timer
	expired bool
}

// newPipe returns the two ends of a fresh pipe.
func newPipe() (net.Conn, net.Conn) {
	p := new(pipe)
	p.cond.L = &p.mu
	a, b := &p.ends[0], &p.ends[1]
	a.p, a.peer = p, b
	b.p, b.peer = p, a
	return a, b
}

func (e *pipeEnd) Read(b []byte) (int, error) {
	p := e.p
	p.mu.Lock()
	defer p.mu.Unlock()
	w := e.peer
	for {
		switch {
		case e.closed:
			return 0, io.ErrClosedPipe
		case w.closed:
			return 0, io.EOF
		case e.rd.expired:
			return 0, timeout("read")
		case w.offered:
			n := copy(b, w.out)
			w.out = w.out[n:]
			if len(w.out) == 0 {
				w.offered = false
				p.cond.Broadcast()
			}
			return n, nil
		}
		p.cond.Wait()
	}
}

func (e *pipeEnd) Write(b []byte) (int, error) {
	p := e.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for e.writing && e.writeErr() == nil {
		p.cond.Wait()
	}
	if err := e.writeErr(); err != nil {
		return 0, err
	}
	e.writing, e.offered, e.out = true, true, b
	p.cond.Broadcast()
	var err error
	for e.offered && err == nil {
		p.cond.Wait()
		err = e.writeErr()
	}
	n := len(b) - len(e.out)
	if !e.offered {
		err = nil // all of it was read before the failure
	}
	e.writing, e.offered, e.out = false, false, nil
	p.cond.Broadcast()
	return n, err
}

// writeErr is what stops a Write on e now, if anything.
func (e *pipeEnd) writeErr() error {
	switch {
	case e.closed || e.peer.closed:
		return io.ErrClosedPipe
	case e.wr.expired:
		return timeout("write")
	}
	return nil
}

func timeout(op string) error {
	return &net.OpError{Op: op, Net: "pipe", Err: os.ErrDeadlineExceeded}
}

// Close closes the end: its pending and later calls fail, and the
// peer reads EOF. It is idempotent and returns nil.
func (e *pipeEnd) Close() error {
	p := e.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if !e.closed {
		e.closed = true
		e.rd.stop()
		e.wr.stop()
		p.cond.Broadcast()
	}
	return nil
}

func (e *pipeEnd) SetDeadline(t time.Time) error      { return e.setDeadline(t, &e.rd, &e.wr) }
func (e *pipeEnd) SetReadDeadline(t time.Time) error  { return e.setDeadline(t, &e.rd, nil) }
func (e *pipeEnd) SetWriteDeadline(t time.Time) error { return e.setDeadline(t, &e.wr, nil) }

// setDeadline sets d1 and, when given, d2 to t; a zero t clears them.
func (e *pipeEnd) setDeadline(t time.Time, d1, d2 *deadline) error {
	p := e.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.closed || e.peer.closed {
		return io.ErrClosedPipe
	}
	expired := e.arm(d1, t)
	if d2 != nil {
		expired = e.arm(d2, t) || expired
	}
	if expired {
		p.cond.Broadcast()
	}
	return nil
}

// arm sets d to t and reports whether it has expired already. It runs
// with the pipe locked.
func (e *pipeEnd) arm(d *deadline, t time.Time) bool {
	d.at, d.expired = t, false
	if t.IsZero() {
		d.stop()
		return false
	}
	left := untilDeadline(t)
	if left <= 0 {
		d.expired = true
		d.stop()
		return true
	}
	if d.timer == nil {
		d.timer = time.AfterFunc(left, func() { e.expire(d) })
	} else {
		d.timer.Reset(left)
	}
	return false
}

// expire is d's timer firing. A deadline moved later since the timer
// was armed is left to the timer's next firing.
func (e *pipeEnd) expire(d *deadline) {
	p := e.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if d.at.IsZero() || d.expired {
		return
	}
	if left := untilDeadline(d.at); left > 0 {
		d.timer.Reset(left)
		return
	}
	d.expired = true
	p.cond.Broadcast()
}

func (d *deadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
	}
}

// untilDeadline is how long until t, by the wall clock that
// net.Conn deadlines are defined on.
func untilDeadline(t time.Time) time.Duration {
	return time.Until(t) //goearvet:ignore a net.Conn deadline is a wall-clock time by its contract
}

func (e *pipeEnd) LocalAddr() net.Addr  { return pipeAddr{} }
func (e *pipeEnd) RemoteAddr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
