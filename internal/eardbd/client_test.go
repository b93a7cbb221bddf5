package eardbd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"goear/internal/accounting"
	"goear/internal/alloctest"
	"goear/internal/eard"
	"goear/internal/par"
	"goear/internal/wire"
)

// ackDropDialer dials srv with the client end wrapped in an
// ackDropConn sharing drops.
func ackDropDialer(srv *Server, drops *atomic.Int32) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := srv.Dial()
		if err != nil {
			return nil, err
		}
		return &ackDropConn{Conn: conn, drops: drops}, nil
	}
}

func newTestClient(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	if cfg.Node == "" {
		cfg.Node = "n01"
	}
	if cfg.Clock == nil {
		cfg.Clock = NewFakeClock(0)
	}
	if cfg.Jitter == nil {
		cfg.Jitter = rand.New(rand.NewSource(42))
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientConfigValidation(t *testing.T) {
	base := ClientConfig{
		Node:   "n01",
		Dial:   func() (net.Conn, error) { return nil, errors.New("no") },
		Clock:  NewFakeClock(0),
		Jitter: rand.New(rand.NewSource(1)),
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*ClientConfig)
	}{
		{"no node", func(c *ClientConfig) { c.Node = "" }},
		{"no dial", func(c *ClientConfig) { c.Dial = nil }},
		{"no clock", func(c *ClientConfig) { c.Clock = nil }},
		{"no jitter", func(c *ClientConfig) { c.Jitter = nil }},
	} {
		cfg := base
		tc.corrupt(&cfg)
		if _, err := NewClient(cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	if _, err := NewClient(base); err != nil {
		t.Errorf("valid config refused: %v", err)
	}
}

func TestClientBatchSizeTrigger(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	c := newTestClient(t, ClientConfig{Dial: srv.Dial, BatchRecords: 3})
	for i := 0; i < 7; i++ {
		if err := c.Enqueue(rec("j1", "0", fmt.Sprintf("n%02d", i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Two full batches flushed automatically, one record still queued.
	if got := srv.DB().Len(); got != 6 {
		t.Errorf("db = %d records before explicit flush, want 6", got)
	}
	if c.pendingLocked() != 1 {
		t.Errorf("queued = %d, want 1", c.pendingLocked())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.DB().Len(); got != 7 {
		t.Errorf("db = %d records after close, want 7", got)
	}
	st := c.Stats()
	if st.Enqueued != 7 || st.BatchesSent != 3 || st.RecordsSent != 7 || st.Retries != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestNewClientWithoutTelemetryAllocatesOnlyItself: with telemetry off
// a client resolves no instruments, so building one is its struct.
func TestNewClientWithoutTelemetryAllocatesOnlyItself(t *testing.T) {
	cfg := ClientConfig{
		Node: "n01", Dial: func() (net.Conn, error) { return nil, errors.New("no") },
		Clock: NewFakeClock(0), Jitter: rand.New(rand.NewSource(1)),
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = NewClient(cfg) }); n != 1 {
		t.Errorf("NewClient without telemetry: %v allocations, want 1", n)
	}
}

// ackDropConn loses the first `drops` acks on the client side: it
// waits for the reply to start arriving — by then the server has
// processed the batch — and kills the connection instead of delivering
// it, the lost-ack half of a mid-stream kill.
type ackDropConn struct {
	net.Conn
	drops *atomic.Int32
}

func (c *ackDropConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err == nil && c.drops.Add(-1) >= 0 {
		_ = c.Conn.Close()
		return 0, errors.New("ack lost: connection killed")
	}
	return n, err
}

// TestExactlyOnceAfterLostAck is the acceptance test for graceful
// degradation: the server processes a batch but dies before the ack.
// The client must retry/spill/replay under the same batch ID, and
// every record must land in the DB exactly once.
func TestExactlyOnceAfterLostAck(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	drops := &atomic.Int32{}
	drops.Store(1)
	c := newTestClient(t, ClientConfig{
		Dial:         ackDropDialer(srv, drops),
		BatchRecords: 4, MaxAttempts: 3,
	})
	for i := 0; i < 4; i++ {
		if err := c.Enqueue(rec("j1", "0", fmt.Sprintf("n%02d", i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	// The size trigger fired, the first ack was dropped, the in-flush
	// retry redelivered under the same ID and the server deduplicated.
	st := srv.Stats()
	if srv.DB().Len() != 4 {
		t.Fatalf("db = %d records, want 4", srv.DB().Len())
	}
	if st.RecordsAccepted != 4 || st.RecordsReplaced != 0 {
		t.Errorf("server stats = %+v: records not exactly-once", st)
	}
	if st.DuplicateBatches != 1 {
		t.Errorf("server stats = %+v, want exactly 1 deduplicated batch redelivery", st)
	}
	if cs := c.Stats(); cs.Retries == 0 {
		t.Errorf("client stats = %+v, expected a retry", cs)
	}
}

// TestJournalSpillAndReplayExactlyOnce kills the daemon outright: the
// flush exhausts its attempts, spills to the journal, and a later
// flush (daemon back up, same DB) replays. Records land exactly once.
func TestJournalSpillAndReplayExactlyOnce(t *testing.T) {
	db := eard.NewDB()
	srv := NewServer(db, Config{})
	drops := &atomic.Int32{}
	drops.Store(99) // every ack write fails: daemon is effectively down
	journal, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, ClientConfig{
		Dial:         ackDropDialer(srv, drops),
		BatchRecords: 4, MaxAttempts: 2, Journal: journal,
	})
	for i := 0; i < 4; i++ {
		err := c.Enqueue(rec("j1", "0", fmt.Sprintf("n%02d", i), 100))
		if i < 3 && err != nil {
			t.Fatal(err)
		}
		if i == 3 && !errors.Is(err, ErrUnreachable) {
			t.Fatalf("flush against dead daemon = %v, want ErrUnreachable", err)
		}
	}
	// The batch was processed server-side (acks die, reads do not) and
	// spilled client-side under its original ID.
	if journal.Len() != 1 {
		t.Fatalf("journal = %d batches, want 1", journal.Len())
	}
	if c.pendingLocked() != 0 {
		t.Errorf("queue = %d records after spill, want 0", c.pendingLocked())
	}

	// Daemon recovers.
	drops.Store(0)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if journal.Len() != 0 {
		t.Errorf("journal = %d batches after replay, want 0", journal.Len())
	}
	st := srv.Stats()
	if db.Len() != 4 || st.RecordsAccepted != 4 || st.RecordsReplaced != 0 {
		t.Errorf("db = %d, stats = %+v: records not exactly-once", db.Len(), st)
	}
	if st.DuplicateBatches == 0 {
		t.Error("replay was not deduplicated by batch ID")
	}
	if cs := c.Stats(); cs.BatchesSpilled != 1 || cs.BatchesReplayed != 1 {
		t.Errorf("client stats = %+v", cs)
	}
}

func TestClientUnreachableWithoutJournalKeepsQueue(t *testing.T) {
	c := newTestClient(t, ClientConfig{
		Dial:        func() (net.Conn, error) { return nil, errors.New("refused") },
		MaxAttempts: 2, BatchRecords: maxBatchRecords,
	})
	for i := 1; i < maxBatchRecords; i++ {
		if err := c.Enqueue(rec("j1", fmt.Sprint(i), "n01", 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Enqueue(rec("j1", "0", "n02", 100)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("flush = %v, want ErrUnreachable", err)
	}
	if c.pendingLocked() != maxBatchRecords {
		t.Errorf("queue = %d, want %d (kept, not lost)", c.pendingLocked(), maxBatchRecords)
	}
	// Queue at cap with no journal: the next record is refused.
	if err := c.Enqueue(rec("j1", "0", "n04", 100)); !errors.Is(err, errQueueFull) {
		t.Fatalf("enqueue over cap = %v, want ErrQueueFull", err)
	}
	if st := c.Stats(); st.RecordsDropped != 1 {
		t.Errorf("stats = %+v, want 1 dropped", st)
	}
}

// TestUnreachableErrorNamesBatchAndAttempts pins the message a failed
// flush returns and that it still matches ErrUnreachable.
func TestUnreachableErrorNamesBatchAndAttempts(t *testing.T) {
	c := newTestClient(t, ClientConfig{
		Dial:        func() (net.Conn, error) { return nil, errors.New("refused") },
		MaxAttempts: 3,
	})
	if err := c.Enqueue(rec("j1", "0", "n01", 100)); err != nil {
		t.Fatal(err)
	}
	err := c.Flush()
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("flush = %v, want ErrUnreachable", err)
	}
	if want := "eardbd: daemon unreachable: 3 attempts failed for batch n01/1"; err.Error() != want {
		t.Errorf("flush error reads %q, want %q", err, want)
	}
}

// TestUnreachableFlushAllocatesItsError: a flush through a dialer that
// always fails costs the error it returns and nothing else — its batch
// ID comes from the client's ID block.
func TestUnreachableFlushAllocatesItsError(t *testing.T) {
	refused := errors.New("refused")
	c := newTestClient(t, ClientConfig{Dial: func() (net.Conn, error) { return nil, refused }})
	if err := c.Enqueue(rec("j1", "0", "n01", 100)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Flush(); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("flush = %v, want ErrUnreachable", err)
		}
	}); n != 1 {
		t.Errorf("a failed flush: %v allocations, want 1", n)
	}
}

// TestClientQueueCapSpillsToJournal: a client whose batch trigger is
// the batch limit spills each batch that fills while the daemon is
// down whole, at the limit and never past it. The first spill fails
// (the journal's directory is missing), so the batch stays pending at
// the limit and the next enqueue spills it to make room; the second is
// spilled by the flush its trigger starts. The real server stores
// every record on recovery and the journal drains.
func TestClientQueueCapSpillsToJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "later")
	journal, err := OpenJournal(filepath.Join(dir, "n01.journal"))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eard.NewDB(), Config{})
	d := &flakyDialer{dial: srv.Dial}
	c := newTestClient(t, ClientConfig{Dial: d.Dial, MaxAttempts: 1, BatchRecords: maxBatchRecords, Journal: journal})
	const n = 2*maxBatchRecords + 2
	for i := 0; i < n; i++ {
		err := c.Enqueue(rec("j1", fmt.Sprint(i), "n01", 100))
		if i == maxBatchRecords-1 {
			if err == nil || errors.Is(err, ErrUnreachable) {
				t.Fatalf("the spill into a missing directory: %v, want a journal error", err)
			}
			if c.pendingLocked() != maxBatchRecords || journal.Len() != 0 {
				t.Fatalf("after the failed spill: %d queued, %d journaled, want %d and 0", c.pendingLocked(), journal.Len(), maxBatchRecords)
			}
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil && !errors.Is(err, ErrUnreachable) {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if journal.Len() != 2 {
		t.Errorf("journal = %d batches, want 2", journal.Len())
	}
	total := 0
	for _, b := range journal.entries {
		total += b.Records
		if b.Records != maxBatchRecords {
			t.Errorf("spilled batch %s holds %d records, want %d", b.ID, b.Records, maxBatchRecords)
		}
	}
	if total+c.pendingLocked() != n || c.pendingLocked() != 2 {
		t.Errorf("spilled %d + queued %d, want %d with 2 queued", total, c.pendingLocked(), n)
	}
	d.up.Store(true)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got, st := srv.DB().Len(), c.Stats(); got != n || st.RecordsDropped != 0 || st.BatchesRejected != 0 {
		t.Errorf("stored %d of %d; stats %+v", got, n, st)
	}
	if journal.Len() != 0 {
		t.Errorf("journal keeps %d batches after recovery", journal.Len())
	}
}

// TestNewClientRefusesBatchPastLimit: a batch trigger past the daemon's
// batch limit is refused when the client is built, naming both sizes,
// not when the daemon refuses the batch and the client drops it.
func TestNewClientRefusesBatchPastLimit(t *testing.T) {
	cfg := ClientConfig{Node: "n01", Dial: func() (net.Conn, error) { return nil, errors.New("refused") },
		Clock: NewFakeClock(0), Jitter: rand.New(rand.NewSource(1))}
	cfg.BatchRecords = maxBatchRecords
	if _, err := NewClient(cfg); err != nil {
		t.Fatalf("a batch at the limit: %v", err)
	}
	cfg.BatchRecords = maxBatchRecords + 1
	_, err := NewClient(cfg)
	if want := "eardbd: batch size 1025 is past the daemon's limit of 1024 records a batch"; err == nil || err.Error() != want {
		t.Errorf("a batch past the limit: %v, want %q", err, want)
	}
}

// TestOutagePastTheLimitWithoutJournal: 1,500 enqueues while the daemon
// is down, with no journal, keep the first 1,024 pending and count the
// other 476 dropped as they come; the real server takes all 1,024 when
// it returns, and no batch is rejected.
func TestOutagePastTheLimitWithoutJournal(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	d := &flakyDialer{dial: srv.Dial}
	c := newTestClient(t, ClientConfig{Dial: d.Dial, MaxAttempts: 1})
	const n = 1500
	for i := 0; i < n; i++ {
		err := c.Enqueue(rec("j1", fmt.Sprint(i), "n01", 100))
		if err != nil && !errors.Is(err, ErrUnreachable) && !(i >= maxBatchRecords && errors.Is(err, errQueueFull)) {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	d.up.Store(true)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if got := srv.DB().Len(); got != maxBatchRecords || st.RecordsSent != maxBatchRecords {
		t.Errorf("acked %d (stored %d), want %d", st.RecordsSent, got, maxBatchRecords)
	}
	if st.RecordsDropped != n-maxBatchRecords || st.BatchesRejected != 0 {
		t.Errorf("dropped %d in %d rejected batches, want %d in 0", st.RecordsDropped, st.BatchesRejected, n-maxBatchRecords)
	}
}

// TestClientDropsPoisonBatch: a journaled batch the daemon refuses —
// here one past the batch limit, as a build with a larger queue could
// spill — is dropped and counted, not replayed forever, and the client
// still delivers within the limit.
func TestClientDropsPoisonBatch(t *testing.T) {
	journal, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	big := wire.Batch{ID: BatchID("n01", 1), Node: "n01"}
	for i := 0; i <= maxBatchRecords; i++ {
		big.Records = append(big.Records, rec("j1", fmt.Sprint(i), "n01", 100))
	}
	if err := journal.Append(big); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eard.NewDB(), Config{})
	c := newTestClient(t, ClientConfig{Dial: srv.Dial, Journal: journal})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// The poison batch is dropped, not retried forever.
	if journal.Len() != 0 {
		t.Errorf("journal = %d after rejection, want 0", journal.Len())
	}
	if st := c.Stats(); st.BatchesRejected != 1 || st.RecordsDropped != maxBatchRecords+1 {
		t.Errorf("stats = %+v", st)
	}
	// The client is still usable within the server's limits.
	if err := c.Enqueue(rec("j2", "0", "n01", 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if srv.DB().Len() != 1 {
		t.Errorf("db = %d, want 1", srv.DB().Len())
	}
}

// TestClientDropsRejectedPendingBatch: a pending batch the daemon
// answers with an error frame is dropped at the flush and counted —
// its records dropped, one batch rejected — not kept to be sent again.
func TestClientDropsRejectedPendingBatch(t *testing.T) {
	var served sync.WaitGroup
	c := newTestClient(t, ClientConfig{Dial: func() (net.Conn, error) {
		client, daemon := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			rejectAll(daemon)
		}()
		return client, nil
	}})
	const n = 5
	for i := 0; i < n; i++ {
		if err := c.Enqueue(rec("j1", fmt.Sprint(i), "n01", 100)); err != nil {
			t.Fatal(err)
		}
	}
	var rej *rejectedError
	if err := c.Flush(); !errors.As(err, &rej) {
		t.Fatalf("flush = %v, want a rejection", err)
	}
	if c.pendingLocked() != 0 {
		t.Errorf("queue = %d after rejection, want 0", c.pendingLocked())
	}
	if st := c.Stats(); st.BatchesRejected != 1 || st.RecordsDropped != n || st.RecordsSent != 0 {
		t.Errorf("stats = %+v, want 1 batch rejected and %d records dropped", st, n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	served.Wait()
}

// rejectAll answers every batch on conn with an error frame until the
// client hangs up.
func rejectAll(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	var c wire.Conn
	c.Reset(conn)
	for {
		if _, err := c.Read(); err != nil {
			return
		}
		if wire.WriteFrame(conn, wire.Frame{Type: wire.TypeError, Payload: wire.AppendError(nil, "refused")}, 0) != nil {
			return
		}
	}
}

// sleepRecorder records backoff sleeps.
type sleepRecorder struct {
	*FakeClock
	mu    sync.Mutex
	slept []float64
}

func (c *sleepRecorder) Sleep(sec float64) {
	c.mu.Lock()
	c.slept = append(c.slept, sec)
	c.mu.Unlock()
	c.FakeClock.Sleep(sec)
}

func TestBackoffIsJitteredExponential(t *testing.T) {
	clock := &sleepRecorder{FakeClock: NewFakeClock(0)}
	c := newTestClient(t, ClientConfig{
		Dial:  func() (net.Conn, error) { return nil, errors.New("refused") },
		Clock: clock, Jitter: rand.New(rand.NewSource(7)),
		MaxAttempts: 9, BatchRecords: 1,
	})
	if err := c.Enqueue(rec("j1", "0", "n01", 100)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if len(clock.slept) != 8 {
		t.Fatalf("sleeps = %v, want 8 backoffs for 9 attempts", clock.slept)
	}
	// Attempt k backs off 2^(k-1)·0.5 s, capped at 30 s, scaled into
	// [0.5, 1).
	for i, s := range clock.slept {
		d := min(backoffBaseSec*float64(int(1)<<i), backoffMaxSec)
		if s < d/2 || s >= d {
			t.Errorf("backoff %d = %g, want [%g, %g)", i+1, s, d/2, d)
		}
	}
	// The schedule is reproducible under the same seed.
	clock2 := &sleepRecorder{FakeClock: NewFakeClock(0)}
	c2 := newTestClient(t, ClientConfig{
		Dial:  func() (net.Conn, error) { return nil, errors.New("refused") },
		Clock: clock2, Jitter: rand.New(rand.NewSource(7)),
		MaxAttempts: 9, BatchRecords: 1,
	})
	if err := c2.Enqueue(rec("j1", "0", "n01", 100)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	for i := range clock.slept {
		if clock.slept[i] != clock2.slept[i] {
			t.Errorf("seeded backoff differs: %v vs %v", clock.slept, clock2.slept)
		}
	}
}

// flakyListener kills every third accepted connection: one dies on
// its first server-side read (batch lost before processing), the next
// loses its first ack write (batch processed, ack lost), the third is
// healthy. Progress is guaranteed, every failure mode is exercised.
type flakyListener struct {
	net.Listener
	accepted atomic.Int32
}

type readKillConn struct {
	net.Conn
	kills *atomic.Int32
}

func (c *readKillConn) Read(p []byte) (int, error) {
	if c.kills.Add(-1) >= 0 {
		_ = c.Conn.Close()
		return 0, errors.New("killed before read")
	}
	return c.Conn.Read(p)
}

func (l *flakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	switch l.accepted.Add(1) % 3 {
	case 1:
		kills := &atomic.Int32{}
		kills.Store(1)
		return &readKillConn{Conn: conn, kills: kills}, nil
	case 2:
		drops := &atomic.Int32{}
		drops.Store(1)
		return &ackDropConn{Conn: conn, drops: drops}, nil
	}
	return conn, nil
}

// TestClientReconnectStress drives concurrent producers through a
// flaky TCP listener and checks the exactly-once contract end to end.
// Run under -race in CI.
func TestClientReconnectStress(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &flakyListener{Listener: base}
	db := eard.NewDB()
	srv := NewServer(db, Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		<-done
	}()

	journal, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, ClientConfig{
		Node: "n01",
		Dial: func() (net.Conn, error) { return net.Dial("tcp", base.Addr().String()) },
		// 5 attempts ride out the flaky listener's worst-case run of
		// broken connections.
		BatchRecords: 8, MaxAttempts: 5, Journal: journal,
	})

	const producers, perProducer = 4, 100
	err = par.ForEach(producers, producers, func(g int) error {
		for i := 0; i < perProducer; i++ {
			r := rec(fmt.Sprintf("j%d", g), fmt.Sprint(i), fmt.Sprintf("n%02d", g), 100+float64(g))
			if err := c.Enqueue(r); err != nil && !errors.Is(err, ErrUnreachable) {
				return fmt.Errorf("producer %d record %d: %w", g, i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drain: flush until everything buffered or spilled has landed.
	for i := 0; i < 200 && (c.pendingLocked() > 0 || journal.Len() > 0); i++ {
		if err := c.Flush(); err != nil && !errors.Is(err, ErrUnreachable) {
			t.Fatal(err)
		}
	}

	const want = producers * perProducer
	if db.Len() != want {
		t.Fatalf("db = %d records, want %d", db.Len(), want)
	}
	st := srv.Stats()
	if st.RecordsAccepted != want || st.RecordsReplaced != 0 {
		t.Errorf("server stats = %+v: records not exactly-once", st)
	}
	for g := 0; g < producers; g++ {
		for i := 0; i < perProducer; i++ {
			want := rec(fmt.Sprintf("j%d", g), fmt.Sprint(i), fmt.Sprintf("n%02d", g), 100+float64(g))
			if got := db.Job(want.JobID, want.StepID); len(got) != 1 || got[0] != want {
				t.Fatalf("step (%s,%s) = %+v, want [%+v]", want.JobID, want.StepID, got, want)
			}
		}
	}
}

func TestFreshClientResumesSeqPastJournal(t *testing.T) {
	// A previous process spilled batch n01/1. A fresh client over the
	// same journal must not reuse that ID for new records: the server's
	// seen-window would treat the new batch as a redelivery and drop it.
	journal, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	dead := func() (net.Conn, error) { return nil, errors.New("down") }
	c1 := newTestClient(t, ClientConfig{Dial: dead, Journal: journal, MaxAttempts: 1})
	if err := c1.Enqueue(rec("j1", "0", "n01", 100)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("flush err = %v, want ErrUnreachable", err)
	}
	if journal.Len() != 1 {
		t.Fatalf("journal = %d batches, want 1", journal.Len())
	}

	srv := NewServer(eard.NewDB(), Config{})
	c2 := newTestClient(t, ClientConfig{Dial: srv.Dial, Journal: journal})
	if err := c2.Enqueue(rec("j2", "0", "n01", 200)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.DB().Len(); got != 2 {
		t.Fatalf("db = %d records, want 2 (journaled + fresh)", got)
	}
	if st := srv.Stats(); st.DuplicateBatches != 0 {
		t.Errorf("fresh batch collided with a journaled ID: %+v", st)
	}
}

// reporterLoad is one reporter's traffic in ingest-steady's shape: 24
// records over three jobs, then 4 accounting windows.
func reporterLoad(node string) ([]eard.JobRecord, []accounting.Record) {
	recs := make([]eard.JobRecord, 24)
	for i := range recs {
		recs[i] = rec(fmt.Sprint("job", i%3), fmt.Sprint(i/3), node, 100+float64(i))
	}
	wins := make([]accounting.Record, 4)
	for i := range wins {
		wins[i] = accounting.Record{
			V: accounting.CodecVersion, JobID: fmt.Sprint("job", i%3), StepID: "0", User: "alice", Node: node,
			Phase: i, StartSec: 60 * float64(i), EndSec: 60 * float64(i+1), NodeJ: 1000,
		}
	}
	return recs, wins
}

// TestOneBatchReporterAllocations pins what a reporter that sends one
// batch costs: 24 records and 4 windows enqueued into 32-record batches
// against a warm in-process server, then Close, which delivers them.
// Counted from NewClient to the end of the server's handler, which
// allocates nothing warm: the client, its connection (the pipe and the
// handler's goroutine), its ID block, the window queue's 8 slots, the
// batch builder and the image it sizes for a full batch — 7
// allocations, 5,632 bytes. While the records were queued as values
// and encoded again at the flush it was 7 and 9,536: a 32-record queue
// (4,864 bytes) and an image made at the flush in place of the builder.
func TestOneBatchReporterAllocations(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	t.Cleanup(func() { _ = srv.Close() })
	recs, wins := reporterLoad("n01")
	cfg := ClientConfig{Node: "n01", Dial: srv.Dial, Clock: NewFakeClock(0), Jitter: rand.New(rand.NewSource(1)), BatchRecords: 32}
	report := func() {
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := c.Enqueue(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range wins {
			if err := c.EnqueueAcct(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.BatchesSent != 1 || st.RecordsSent != 28 {
			t.Fatalf("stats = %+v, want one 28-record batch", st)
		}
		// The handler sees the close and returns its connection state
		// for the next reporter's.
		for srv.Conns() != 0 {
			runtime.Gosched()
		}
	}
	report() // the server's connection state, and the batch ID it dedups from here on
	// The server's pool keeps that state from one reporter to the next.
	alloctest.Hold(t)
	if n := testing.AllocsPerRun(20, report); n != 7 {
		t.Errorf("a one-batch reporter: %v allocations, want 7", n)
	}
	// Bytes: the least of five rounds of 20, since a goroutine an
	// earlier test left winding down can land an allocation in a round.
	least := float64(alloctest.Least(5, func() alloctest.Allocs {
		return alloctest.Count(func() {
			for range 20 {
				report()
			}
		})
	}).Bytes) / 20
	if least != 5632 {
		t.Errorf("a one-batch reporter: %v bytes, want 5632", least)
	}
}

// flakyDialer reaches dial while up holds, and fails otherwise; every
// connection it makes copies what the client writes into sent.
type flakyDialer struct {
	up   atomic.Bool
	dial func() (net.Conn, error)
	mu   sync.Mutex
	sent []byte
}

func (d *flakyDialer) Dial() (net.Conn, error) {
	if !d.up.Load() {
		return nil, errors.New("refused")
	}
	conn, err := d.dial()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: conn, d: d}, nil
}

type tapConn struct {
	net.Conn
	d *flakyDialer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.d.mu.Lock()
	c.d.sent = append(c.d.sent, p...)
	c.d.mu.Unlock()
	return c.Conn.Write(p)
}

// TestBatchOutlivesItsFlush: without a journal, a batch whose flushes
// cannot reach the daemon stays pending while records and windows keep
// arriving. The batch that finally arrives carries the ID of the flush
// that delivered it, every record and window exactly once, and the
// records enqueued after the failed flushes ahead of every window.
func TestBatchOutlivesItsFlush(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	t.Cleanup(func() { _ = srv.Close() })
	d := &flakyDialer{dial: srv.Dial}
	c := newTestClient(t, ClientConfig{Dial: d.Dial, MaxAttempts: 2})
	recs, wins := reporterLoad("n01")
	enqueue := func(nr, nw int) {
		for ; nr > 0; nr-- {
			if err := c.Enqueue(recs[0]); err != nil {
				t.Fatal(err)
			}
			recs = recs[1:]
		}
		for ; nw > 0; nw-- {
			if err := c.EnqueueAcct(wins[0]); err != nil {
				t.Fatal(err)
			}
			wins = wins[1:]
		}
	}
	wantRecs, wantWins := recs, wins
	enqueue(10, 2)
	if err := c.Flush(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("flush with the daemon down = %v", err)
	}
	enqueue(8, 1)
	if err := c.Flush(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("second flush with the daemon down = %v", err)
	}
	enqueue(6, 1)
	d.up.Store(true)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	sent := bytes.NewReader(d.sent)
	f, err := wire.ReadFrame(sent, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sent.Len() != 0 {
		t.Errorf("%d bytes sent after the one batch", sent.Len())
	}
	got, err := f.AsBatch()
	if err != nil {
		t.Fatal(err)
	}
	want := wire.Batch{ID: "n01/3", Node: "n01", Records: wantRecs, Acct: wantWins}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the batch that arrived:\n%+v\nwant\n%+v", got, want)
	}
	if n, a := srv.DB().Len(), srv.Acct().Len(); n != 24 || a != 4 {
		t.Errorf("the daemon holds %d records and %d windows, want 24 and 4", n, a)
	}
}

// TestSpilledBatchKeepsItsBytes: the journal keeps a spilled batch's
// image itself, so the client's next batch is built elsewhere — records
// enqueued after a spill, and the next spill, leave the journaled bytes
// as they were.
func TestSpilledBatchKeepsItsBytes(t *testing.T) {
	journal, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, ClientConfig{
		Dial:        func() (net.Conn, error) { return nil, errors.New("refused") },
		MaxAttempts: 1, BatchRecords: 8, Journal: journal,
	})
	for i := 0; i < 8; i++ {
		if err := c.Enqueue(rec("j1", fmt.Sprint(i), "n01", 100)); !errors.Is(err, ErrUnreachable) && err != nil {
			t.Fatal(err)
		}
	}
	if journal.Len() != 1 {
		t.Fatalf("journal = %d batches, want 1", journal.Len())
	}
	first := journal.entries[0].image
	was := bytes.Clone(first)
	for i := 0; i < 20; i++ {
		if err := c.Enqueue(rec("j2", fmt.Sprint(i), "n01", 200)); !errors.Is(err, ErrUnreachable) && err != nil {
			t.Fatal(err)
		}
	}
	if journal.Len() < 2 {
		t.Fatalf("journal = %d batches, want the later ones spilled too", journal.Len())
	}
	if !bytes.Equal(journal.entries[0].image, was) || !bytes.Equal(first, was) {
		t.Error("records enqueued after a spill changed the journaled image")
	}
}

// ackAll is a daemon without a batch-size limit: it acks every batch
// it reads on conn and adds its records and windows to got, until conn
// closes or a frame does not decode.
func ackAll(conn net.Conn, got *atomic.Int64) {
	defer func() { _ = conn.Close() }()
	var c wire.Conn
	c.Reset(conn)
	for {
		f, err := c.Read()
		if err != nil {
			return
		}
		b, err := f.AsBatch()
		if err != nil {
			return
		}
		got.Add(int64(len(b.Records) + len(b.Acct)))
		ack, _ := wire.EncodeAck(wire.Ack{BatchID: b.ID, Accepted: len(b.Records) + len(b.Acct)})
		if wire.WriteFrame(conn, ack, 0) != nil {
			return
		}
	}
}

// TestOutageKeepsNoLargeBuffer: a client that held maxBatchRecords records
// and windows through an outage with no journal delivers them when the
// daemon returns, and then holds at most wire.MaxKept bytes of batch
// buffer and a batch's worth of window slots — not what the outage
// needed.
func TestOutageKeepsNoLargeBuffer(t *testing.T) {
	var got atomic.Int64
	var served sync.WaitGroup
	d := &flakyDialer{dial: func() (net.Conn, error) {
		client, daemon := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			ackAll(daemon, &got)
		}()
		return client, nil
	}}
	c := newTestClient(t, ClientConfig{Dial: d.Dial, MaxAttempts: 1})
	const windows = 96
	for i := 0; i < maxBatchRecords-windows; i++ {
		if err := c.Enqueue(rec("j1", fmt.Sprint(i), "n01", 100)); err != nil && !errors.Is(err, ErrUnreachable) {
			t.Fatal(err)
		}
	}
	for i := 0; i < windows; i++ {
		w := accounting.Record{V: accounting.CodecVersion, JobID: "j1", StepID: "0", User: "alice", Node: "n01",
			Phase: i, StartSec: 60 * float64(i), EndSec: 60 * float64(i+1), NodeJ: 1000}
		if err := c.EnqueueAcct(w); err != nil && !errors.Is(err, ErrUnreachable) {
			t.Fatal(err)
		}
	}
	if err := c.Enqueue(rec("j1", "late", "n01", 100)); !errors.Is(err, errQueueFull) {
		t.Fatalf("enqueue past the queue cap = %v, want errQueueFull", err)
	}
	if held := c.batch.Cap(); held <= wire.MaxKept {
		t.Fatalf("the outage's batch holds %d bytes: the test needs it past MaxKept", held)
	}
	d.up.Store(true)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := got.Load(); n != maxBatchRecords {
		t.Fatalf("the daemon took %d records and windows, want %d", n, maxBatchRecords)
	}
	if held := c.batch.Cap(); held > wire.MaxKept {
		t.Errorf("after the outage the client holds %d bytes of batch buffer, want at most %d", held, wire.MaxKept)
	}
	if cap(c.windows) > c.cfg.BatchRecords {
		t.Errorf("after the outage the client holds %d window slots, want at most %d", cap(c.windows), c.cfg.BatchRecords)
	}
	if err := c.Enqueue(rec("j1", "after", "n01", 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	served.Wait()
	if n := got.Load(); n != maxBatchRecords+1 {
		t.Errorf("the next batch: the daemon took %d records and windows in all, want %d", n, maxBatchRecords+1)
	}
}
