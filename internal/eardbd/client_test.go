package eardbd

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/par"
	"goear/internal/telemetry"
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
	if c.Queued() != 1 {
		t.Errorf("queued = %d, want 1", c.Queued())
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

// TestQueueHintLeavesRoomForTheBatch: a reporter that sends 24 records
// and then 8 accounting records into 32-record batches sizes its second
// queue by the room the first left, and one batch carries all 32.
func TestQueueHintLeavesRoomForTheBatch(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	c := newTestClient(t, ClientConfig{Dial: srv.Dial, BatchRecords: 32})
	for i := 0; i < 24; i++ {
		if err := c.Enqueue(rec("j1", fmt.Sprint(i), "n01", 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := c.EnqueueAcct(accounting.Record{
			V: accounting.CodecVersion, JobID: "j1", StepID: "0", User: "alice", Node: "n01",
			Phase: i, StartSec: 60 * float64(i), EndSec: 60 * float64(i+1), NodeJ: 1000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.BatchesSent != 1 || st.RecordsSent != 32 {
		t.Fatalf("stats = %+v, want one 32-record batch", st)
	}
	if cap(c.queue) != 32 || cap(c.acctQueue) != 8 {
		t.Errorf("queues allocated %d + %d slots, want 32 + 8", cap(c.queue), cap(c.acctQueue))
	}
}

// TestNewClientWithoutTelemetryAllocatesOnlyItself: with telemetry off
// a client resolves no instruments, so building one is its struct.
func TestNewClientWithoutTelemetryAllocatesOnlyItself(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("global telemetry is on")
	}
	cfg := ClientConfig{
		Node: "n01", Dial: func() (net.Conn, error) { return nil, errors.New("no") },
		Clock: NewFakeClock(0), Jitter: rand.New(rand.NewSource(1)),
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = NewClient(cfg) }); n != 1 {
		t.Errorf("NewClient without telemetry: %v allocations, want 1", n)
	}
}

func TestClientIntervalTrigger(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	clock := NewFakeClock(100)
	c := newTestClient(t, ClientConfig{Dial: srv.Dial, Clock: clock,
		BatchRecords: 100, FlushIntervalSec: 5})
	if err := c.Enqueue(rec("j1", "0", "n01", 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if srv.DB().Len() != 0 {
		t.Error("tick flushed before the interval elapsed")
	}
	clock.Advance(4.9)
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if srv.DB().Len() != 0 {
		t.Error("tick flushed 0.1s early")
	}
	clock.Advance(0.2)
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if srv.DB().Len() != 1 {
		t.Errorf("db = %d after interval tick, want 1", srv.DB().Len())
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
	if c.Queued() != 0 {
		t.Errorf("queue = %d records after spill, want 0", c.Queued())
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
		MaxAttempts: 2, BatchRecords: 2, QueueCap: 3,
	})
	if err := c.Enqueue(rec("j1", "0", "n01", 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue(rec("j1", "0", "n02", 100)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("flush = %v, want ErrUnreachable", err)
	}
	if c.Queued() != 2 {
		t.Errorf("queue = %d, want 2 (kept, not lost)", c.Queued())
	}
	if err := c.Enqueue(rec("j1", "0", "n03", 100)); !errors.Is(err, ErrUnreachable) {
		t.Fatal(err)
	}
	// Queue at cap with no journal: the next record is refused.
	if err := c.Enqueue(rec("j1", "0", "n04", 100)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue over cap = %v, want ErrQueueFull", err)
	}
	if st := c.Stats(); st.RecordsDropped != 1 {
		t.Errorf("stats = %+v, want 1 dropped", st)
	}
}

func TestClientQueueCapSpillsToJournal(t *testing.T) {
	journal, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, ClientConfig{
		Dial:        func() (net.Conn, error) { return nil, errors.New("refused") },
		MaxAttempts: 1, BatchRecords: 100, QueueCap: 4, Journal: journal,
	})
	for i := 0; i < 10; i++ {
		if err := c.Enqueue(rec("j1", "0", fmt.Sprintf("n%02d", i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Cap 4: enqueues 5 and 9 spilled full queues; 2 remain queued.
	if journal.Len() != 2 {
		t.Errorf("journal = %d batches, want 2", journal.Len())
	}
	total := 0
	for _, b := range journal.Entries() {
		total += b.Records
	}
	if total+c.Queued() != 10 {
		t.Errorf("spilled %d + queued %d, want 10 total", total, c.Queued())
	}
}

func TestClientDropsPoisonBatch(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{MaxBatchRecords: 2})
	c := newTestClient(t, ClientConfig{Dial: srv.Dial, BatchRecords: 3})
	for i := 0; i < 2; i++ {
		if err := c.Enqueue(rec("j1", "0", fmt.Sprintf("n%02d", i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	err := c.Enqueue(rec("j1", "0", "n02", 100))
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("oversized batch = %v, want RejectedError", err)
	}
	// The poison batch is dropped, not retried forever.
	if c.Queued() != 0 {
		t.Errorf("queue = %d after rejection, want 0", c.Queued())
	}
	if st := c.Stats(); st.BatchesRejected != 1 || st.RecordsDropped != 3 {
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
		MaxAttempts: 4, BackoffBaseSec: 1, BackoffMaxSec: 4, BatchRecords: 1,
	})
	if err := c.Enqueue(rec("j1", "0", "n01", 100)); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if len(clock.slept) != 3 {
		t.Fatalf("sleeps = %v, want 3 backoffs for 4 attempts", clock.slept)
	}
	// Attempt k backs off 2^(k-1)·base scaled into [0.5, 1).
	bounds := []struct{ lo, hi float64 }{{0.5, 1}, {1, 2}, {2, 4}}
	for i, s := range clock.slept {
		if s < bounds[i].lo || s >= bounds[i].hi {
			t.Errorf("backoff %d = %g, want [%g, %g)", i+1, s, bounds[i].lo, bounds[i].hi)
		}
	}
	// The schedule is reproducible under the same seed.
	clock2 := &sleepRecorder{FakeClock: NewFakeClock(0)}
	c2 := newTestClient(t, ClientConfig{
		Dial:  func() (net.Conn, error) { return nil, errors.New("refused") },
		Clock: clock2, Jitter: rand.New(rand.NewSource(7)),
		MaxAttempts: 4, BackoffBaseSec: 1, BackoffMaxSec: 4, BatchRecords: 1,
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
		BatchRecords: 8, QueueCap: 64, MaxAttempts: 5,
		BackoffBaseSec: 0.001, Journal: journal,
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
	for i := 0; i < 200 && (c.Queued() > 0 || journal.Len() > 0); i++ {
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
