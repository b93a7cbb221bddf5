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
// only once the peer has read all of it — in one allocation. Both ends
// and the one mutex and condition variable every hand-off goes through
// live in it; net.Pipe spends twelve allocations on the same (two ends,
// six channels, four deadline channels).
//
// Errors follow net.Pipe: Read after the peer closed returns io.EOF;
// Read or Write after the end's own Close, and Write to a closed peer,
// return io.ErrClosedPipe. Where net.Pipe picks at random between ready
// outcomes, the pipe decides in that order, so an end that has closed
// never delivers the bytes its Write still offered. Unlike net.Pipe it
// has no deadlines: a deadline in the fleet is a timer on the injected
// Clock that closes the connection it guards, the same on TCP.
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
	if e.closed || e.peer.closed {
		return io.ErrClosedPipe
	}
	return nil
}

// Close closes the end: its pending and later calls fail, and the
// peer reads EOF. It is idempotent and returns nil.
func (e *pipeEnd) Close() error {
	p := e.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if !e.closed {
		e.closed = true
		p.cond.Broadcast()
	}
	return nil
}

// The Set*Deadline methods return os.ErrNoDeadline, as an *os.File
// that cannot take one does.
func (e *pipeEnd) SetDeadline(time.Time) error      { return os.ErrNoDeadline }
func (e *pipeEnd) SetReadDeadline(time.Time) error  { return os.ErrNoDeadline }
func (e *pipeEnd) SetWriteDeadline(time.Time) error { return os.ErrNoDeadline }

func (e *pipeEnd) LocalAddr() net.Addr  { return pipeAddr{} }
func (e *pipeEnd) RemoteAddr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
