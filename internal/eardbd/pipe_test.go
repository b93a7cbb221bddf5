package eardbd

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// pipeKinds are the transports the conformance table runs against:
// net.Pipe is the oracle, the pipe Front.Dial hands out must behave the
// same.
var pipeKinds = []struct {
	name string
	new  func() (net.Conn, net.Conn)
}{
	{"net.Pipe", net.Pipe},
	{"pipe", newPipe},
}

// ioResult is what a Read or Write running on its own goroutine
// returned.
type ioResult struct {
	n   int
	err error
}

func goWrite(c net.Conn, p []byte) <-chan ioResult {
	out := make(chan ioResult, 1)
	go func() {
		n, err := c.Write(p)
		out <- ioResult{n, err}
	}()
	return out
}

func goRead(c net.Conn, p []byte) <-chan ioResult {
	out := make(chan ioResult, 1)
	go func() {
		n, err := c.Read(p)
		out <- ioResult{n, err}
	}()
	return out
}

// pending fails when the call behind r has returned within a short
// wait; a call that is truly blocked passes whatever the wait.
func pending(t *testing.T, what string, r <-chan ioResult) {
	t.Helper()
	select {
	case got := <-r:
		t.Fatalf("%s returned %d, %v; want it still blocked", what, got.n, got.err)
	case <-time.After(20 * time.Millisecond):
	}
}

// wait returns what the call behind r returned, failing rather than
// hanging when it stays blocked.
func wait(t *testing.T, r <-chan ioResult) ioResult {
	t.Helper()
	select {
	case got := <-r:
		return got
	case <-time.After(5 * time.Second):
		t.Fatal("the call is still blocked after 5 s")
		return ioResult{}
	}
}

func want(t *testing.T, what string, got ioResult, n int, err error) {
	t.Helper()
	if got.n != n || !errors.Is(got.err, err) {
		t.Fatalf("%s = %d, %v; want %d, %v", what, got.n, got.err, n, err)
	}
}

// wantTimeout holds an error to net.Pipe's deadline contract.
func wantTimeout(t *testing.T, what string, got ioResult) {
	t.Helper()
	var op *net.OpError
	if got.n != 0 || !errors.Is(got.err, os.ErrDeadlineExceeded) || !errors.As(got.err, &op) || !op.Timeout() {
		t.Fatalf("%s = %d, %v; want 0 and a *net.OpError timeout", what, got.n, got.err)
	}
}

func call(n int, err error) ioResult { return ioResult{n, err} }

// pipeCases is the behaviour table: each runs on a fresh pair of ends.
var pipeCases = []struct {
	name string
	run  func(t *testing.T, a, b net.Conn)
}{
	{"partial reads", func(t *testing.T, a, b net.Conn) {
		w := goWrite(a, []byte("hello, pipe"))
		buf := make([]byte, 4)
		var got []byte
		for _, n := range []int{4, 4, 3} {
			r := call(b.Read(buf))
			want(t, "read", r, n, nil)
			got = append(got, buf[:n]...)
		}
		if string(got) != "hello, pipe" {
			t.Fatalf("read %q", got)
		}
		want(t, "write", wait(t, w), 11, nil)
	}},
	{"a write returns once fully read", func(t *testing.T, a, b net.Conn) {
		w := goWrite(a, make([]byte, 10))
		pending(t, "write before any read", w)
		want(t, "read", call(b.Read(make([]byte, 6))), 6, nil)
		pending(t, "write read in part", w)
		want(t, "read", call(b.Read(make([]byte, 6))), 4, nil)
		want(t, "write", wait(t, w), 10, nil)
	}},
	{"the peer closed", func(t *testing.T, a, b net.Conn) {
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		want(t, "read from the open end", call(b.Read(make([]byte, 1))), 0, io.EOF)
		want(t, "write from the open end", call(b.Write([]byte("x"))), 0, io.ErrClosedPipe)
		want(t, "read from the closed end", call(a.Read(make([]byte, 1))), 0, io.ErrClosedPipe)
		want(t, "write from the closed end", call(a.Write([]byte("x"))), 0, io.ErrClosedPipe)
		if err := b.SetDeadline(time.Now().Add(time.Hour)); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("deadline on the open end = %v", err)
		}
		if err := a.SetReadDeadline(time.Now().Add(time.Hour)); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("deadline on the closed end = %v", err)
		}
		for i := 0; i < 2; i++ {
			if err := a.Close(); err != nil {
				t.Fatalf("close again = %v", err)
			}
		}
	}},
	{"both closed", func(t *testing.T, a, b net.Conn) {
		_, _ = a.Close(), b.Close()
		want(t, "read", call(b.Read(make([]byte, 1))), 0, io.ErrClosedPipe)
		want(t, "write", call(b.Write([]byte("x"))), 0, io.ErrClosedPipe)
	}},
	{"the peer's close unblocks a pending read", func(t *testing.T, a, b net.Conn) {
		r := goRead(b, make([]byte, 1))
		pending(t, "read", r)
		_ = a.Close()
		want(t, "read", wait(t, r), 0, io.EOF)
	}},
	{"its own close unblocks a pending read", func(t *testing.T, a, b net.Conn) {
		r := goRead(b, make([]byte, 1))
		pending(t, "read", r)
		_ = b.Close()
		want(t, "read", wait(t, r), 0, io.ErrClosedPipe)
	}},
	{"the peer's close unblocks a write read in part", func(t *testing.T, a, b net.Conn) {
		w := goWrite(a, make([]byte, 10))
		want(t, "read", call(b.Read(make([]byte, 4))), 4, nil)
		_ = b.Close()
		want(t, "write read in part, then the peer closed", wait(t, w), 4, io.ErrClosedPipe)
	}},
	{"close withdraws what a pending write offered", func(t *testing.T, a, b net.Conn) {
		w := goWrite(a, []byte("late"))
		pending(t, "write", w)
		_ = a.Close()
		want(t, "read of a closed peer's offer", call(b.Read(make([]byte, 4))), 0, io.EOF)
		want(t, "write after its own close", wait(t, w), 0, io.ErrClosedPipe)
	}},
	{"concurrent writers do not interleave", func(t *testing.T, a, b net.Conn) {
		const writers, size = 8, 64
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := a.Write(bytes.Repeat([]byte{byte('a' + i)}, size)); err != nil {
					t.Error(err)
				}
			}(i)
		}
		// Every writer is blocked before the first read.
		time.Sleep(20 * time.Millisecond)
		_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))
		var got []byte
		buf := make([]byte, 7)
		for len(got) < writers*size {
			n, err := b.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, buf[:n]...)
		}
		wg.Wait()
		seen := map[byte]bool{}
		for i := 0; i < writers; i++ {
			block := got[i*size : (i+1)*size]
			if !bytes.Equal(block, bytes.Repeat(block[:1], size)) {
				t.Fatalf("block %d interleaves writes: %q", i, block)
			}
			seen[block[0]] = true
		}
		if len(seen) != writers {
			t.Fatalf("%d distinct blocks, want %d", len(seen), writers)
		}
	}},
	{"a past deadline", func(t *testing.T, a, b net.Conn) {
		past := time.Now().Add(-time.Second)
		_ = a.SetReadDeadline(past)
		wantTimeout(t, "read", call(a.Read(make([]byte, 1))))
		_ = a.SetWriteDeadline(past)
		wantTimeout(t, "write", call(a.Write([]byte("x"))))
		// The peer's deadlines are its own.
		w := goWrite(b, []byte("y"))
		pending(t, "the peer's write", w)
		_ = b.Close()
		want(t, "the peer's write", wait(t, w), 0, io.ErrClosedPipe)
	}},
	{"a future deadline fires", func(t *testing.T, a, b net.Conn) {
		at := time.Now().Add(30 * time.Millisecond)
		_ = a.SetDeadline(at)
		wantTimeout(t, "read", call(a.Read(make([]byte, 1))))
		if time.Now().Before(at) {
			t.Fatal("the read timed out before its deadline")
		}
		wantTimeout(t, "write", call(a.Write([]byte("x"))))

		at = time.Now().Add(30 * time.Millisecond)
		_ = b.SetWriteDeadline(at)
		wantTimeout(t, "write nobody reads", call(b.Write([]byte("x"))))
		if time.Now().Before(at) {
			t.Fatal("the write timed out before its deadline")
		}
	}},
	{"a deadline set under a blocked read", func(t *testing.T, a, b net.Conn) {
		r := goRead(b, make([]byte, 1))
		pending(t, "read", r)
		_ = b.SetReadDeadline(time.Now().Add(-time.Second))
		wantTimeout(t, "read under a deadline set in the past", wait(t, r))

		r = goRead(a, make([]byte, 1))
		pending(t, "read", r)
		_ = a.SetReadDeadline(time.Now().Add(time.Hour))
		pending(t, "read under a far deadline", r)
		_ = a.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		wantTimeout(t, "read under a deadline moved earlier", wait(t, r))
	}},
	{"a re-armed deadline", func(t *testing.T, a, b net.Conn) {
		_ = a.SetReadDeadline(time.Now().Add(-time.Second))
		wantTimeout(t, "read", call(a.Read(make([]byte, 1))))
		_ = a.SetReadDeadline(time.Now().Add(time.Hour))
		w := goWrite(b, []byte("x"))
		want(t, "read after re-arming", call(a.Read(make([]byte, 1))), 1, nil)
		want(t, "write", wait(t, w), 1, nil)

		// Moved later before it fires: the first arm's time passes
		// without a timeout.
		_ = a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		_ = a.SetReadDeadline(time.Now().Add(time.Hour))
		time.Sleep(40 * time.Millisecond)
		w = goWrite(b, []byte("x"))
		want(t, "read past a moved deadline's first time", call(a.Read(make([]byte, 1))), 1, nil)
		want(t, "write", wait(t, w), 1, nil)
	}},
	{"a cleared deadline", func(t *testing.T, a, b net.Conn) {
		_ = a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		_ = a.SetReadDeadline(time.Time{})
		time.Sleep(40 * time.Millisecond)
		w := goWrite(b, []byte("x"))
		want(t, "read past a cleared deadline", call(a.Read(make([]byte, 1))), 1, nil)
		want(t, "write", wait(t, w), 1, nil)

		_ = a.SetWriteDeadline(time.Now().Add(-time.Second))
		_ = a.SetWriteDeadline(time.Time{})
		r := goRead(b, make([]byte, 1))
		want(t, "write after clearing an expired deadline", call(a.Write([]byte("x"))), 1, nil)
		want(t, "read", wait(t, r), 1, nil)
	}},
}

// TestPipeConformance runs the behaviour table against net.Pipe and
// against the pipe Front.Dial hands out.
func TestPipeConformance(t *testing.T) {
	for _, tc := range pipeCases {
		for _, kind := range pipeKinds {
			t.Run(tc.name+"/"+kind.name, func(t *testing.T) {
				a, b := kind.new()
				defer a.Close()
				defer b.Close()
				tc.run(t, a, b)
			})
		}
	}
}

// TestPipeAllocations holds the pipe to one allocation per connection
// and none per deadline re-arm or round trip.
func TestPipeAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		a, b := newPipe()
		_, _ = a.Close(), b.Close()
	}); n > 1 {
		t.Errorf("create and close: %v allocations, want at most 1", n)
	}

	a, b := newPipe()
	defer a.Close()
	defer b.Close()
	_ = a.SetDeadline(time.Now().Add(time.Hour))
	if n := testing.AllocsPerRun(100, func() {
		_ = a.SetReadDeadline(time.Now().Add(time.Hour))
		_ = a.SetDeadline(time.Now().Add(time.Hour))
	}); n != 0 {
		t.Errorf("deadline re-arm: %v allocations, want 0", n)
	}

	go echoPipe(b)
	msg, reply := make([]byte, 16), make([]byte, 8)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(a, reply); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("16 B / 8 B round trip: %v allocations, want 0", n)
	}
}

// echoPipe answers every 16 bytes read on c with 8 until c fails.
func echoPipe(c net.Conn) {
	in, out := make([]byte, 16), make([]byte, 8)
	for {
		if _, err := io.ReadFull(c, in); err != nil {
			return
		}
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// BenchmarkPipe measures the pipe beside net.Pipe: a connection's
// creation and close, a read-deadline re-arm, and a 16 B / 8 B round
// trip.
func BenchmarkPipe(b *testing.B) {
	for _, kind := range pipeKinds {
		b.Run("create/"+kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x, y := kind.new()
				_, _ = x.Close(), y.Close()
			}
		})
		b.Run("rearm/"+kind.name, func(b *testing.B) {
			x, y := kind.new()
			defer x.Close()
			defer y.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = x.SetReadDeadline(time.Now().Add(time.Hour))
			}
		})
		b.Run("pingpong/"+kind.name, func(b *testing.B) {
			x, y := kind.new()
			defer x.Close()
			defer y.Close()
			go echoPipe(y)
			msg, reply := make([]byte, 16), make([]byte, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Write(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(x, reply); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
