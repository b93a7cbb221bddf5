package eardbd

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"goear/internal/eard"
	"goear/internal/wire"
)

func journalBatch(id string, n int) wire.Batch {
	b := wire.Batch{ID: id, Node: "n01"}
	for i := 0; i < n; i++ {
		b.Records = append(b.Records, eard.JobRecord{
			JobID: "j1", StepID: "0", Node: "n01", TimeSec: 10, EnergyJ: 1000, AvgPower: 100,
		})
	}
	return b
}

// journalFile renders batches the way the journal stores them: one
// untraced wire frame after the other.
func journalFile(t testing.TB, batches ...wire.Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, b := range batches {
		f, err := wire.EncodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&buf, f, 0); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func entryIDs(ents []EncodedBatch) string {
	ids := make([]string, len(ents))
	for i, e := range ents {
		ids[i] = e.ID
	}
	return strings.Join(ids, " ")
}

func TestJournalPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalBatch("n01/1", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalBatch("n01/2", 3)); err != nil {
		t.Fatal(err)
	}
	// One format on disk: the file is exactly the frames that would
	// have gone on the wire.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := journalFile(t, journalBatch("n01/1", 2), journalBatch("n01/2", 3)); !bytes.Equal(raw, want) {
		t.Fatalf("journal file is not the concatenated wire frames:\n got %x\nwant %x", raw, want)
	}

	// A fresh open (a restarted node daemon) sees both batches in
	// order.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ents := j2.entries
	if entryIDs(ents) != "n01/1 n01/2" {
		t.Fatalf("entries = %s", entryIDs(ents))
	}
	if ents[1].Records != 3 {
		t.Errorf("batch 2 records = %d, want 3", ents[1].Records)
	}
	got, err := wire.Frame{Type: wire.TypeBatch, Payload: ents[1].image[wire.HeaderRoom:]}.AsBatch()
	if err != nil || len(got.Records) != 3 || got.Records[2] != journalBatch("", 3).Records[2] {
		t.Errorf("batch 2 payload decodes to %+v, err %v", got, err)
	}

	// Removal compacts; a further reopen sees only the survivor, and
	// removing the last entry deletes the file.
	if err := j2.Remove("n01/1"); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if ents := j3.entries; entryIDs(ents) != "n01/2" {
		t.Fatalf("entries after remove = %s", entryIDs(ents))
	}
	if err := j3.Remove("n01/2"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("empty journal file still exists: %v", err)
	}
}

func TestJournalToleratesCrashTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalBatch("n01/1", 1)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: the first bytes of the next frame.
	next := journalFile(t, journalBatch("n01/2", 1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(next[:len(next)-7]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("crash-truncated journal refused: %v", err)
	}
	if ents := j2.entries; entryIDs(ents) != "n01/1" {
		t.Fatalf("entries = %s", entryIDs(ents))
	}
	// The truncated tail was compacted away: appending then reopening
	// yields clean entries only.
	if err := j2.Append(journalBatch("n01/3", 1)); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if ents := j3.entries; entryIDs(ents) != "n01/1 n01/3" {
		t.Fatalf("entries after recovery = %s", entryIDs(ents))
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	good := journalFile(t, journalBatch("n01/1", 1))
	ack, err := wire.EncodeAck(wire.Ack{BatchID: "n01/1"})
	if err != nil {
		t.Fatal(err)
	}
	var ackFrame bytes.Buffer
	if err := wire.WriteFrame(&ackFrame, ack, 0); err != nil {
		t.Fatal(err)
	}
	badBody := bytes.Clone(good)
	badBody[len(badBody)-60] ^= 0x55 // inside the record's string tags: a reference past the table
	for name, content := range map[string][]byte{
		"garbage between frames": append(append(bytes.Clone(good), "GARBAGE NOT A FRAME"...), good...),
		"whole non-batch frame":  append(bytes.Clone(good), ackFrame.Bytes()...),
		"undecodable batch body": append(badBody, good...),
	} {
		path := filepath.Join(t.TempDir(), "spill.journal")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenJournal(path); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, content) {
			t.Errorf("%s: refusing the journal modified it (err %v)", name, err)
		}
	}
}

// A journal written before wire version 2 is JSON lines. It must fail
// loudly — never load as empty, never be truncated as a torn tail.
func TestJournalRejectsPreV2Format(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.journal")
	content := []byte(`{"id":"n01/1","node":"n01","records":[]}` + "\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(path)
	if err == nil {
		t.Fatal("pre-v2 JSON-lines journal accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "JSON-lines") || !strings.Contains(msg, path) {
		t.Errorf("error names neither the format nor the path: %v", err)
	}
	if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, content) {
		t.Errorf("refusing the journal modified it (err %v)", rerr)
	}
}

// TestJournalFailedCompactionLeavesNoTemp: a compaction whose rename
// fails — here the journal's path has become a directory — reports the
// error and takes its temporary file away with it.
func TestJournalFailedCompactionLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"n01/1", "n01/2"} {
		if err := j.Append(journalBatch(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove("n01/1"); err == nil {
		t.Fatal("compaction over a directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed compaction left %s.tmp behind (stat: %v)", path, err)
	}
}

func TestJournalMemoryOnly(t *testing.T) {
	j, err := OpenJournal("")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalBatch("m/1", 1)); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Errorf("len = %d", j.Len())
	}
	if err := j.Remove("m/1"); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Errorf("len after remove = %d", j.Len())
	}
}

// recordingConn keeps everything written to it.
type recordingConn struct {
	net.Conn
	written *bytes.Buffer
}

func (c recordingConn) Write(p []byte) (int, error) {
	c.written.Write(p)
	return c.Conn.Write(p)
}

// A spilled batch goes back on the wire as the bytes that were
// journaled: the replay neither decodes nor re-encodes it.
func TestReplaySendsJournaledPayloadVerbatim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.journal")
	journal, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	down := newTestClient(t, ClientConfig{
		Dial:        func() (net.Conn, error) { return nil, errors.New("refused") },
		MaxAttempts: 1, BatchRecords: 2, Journal: journal,
	})
	for i := 0; i < 2; i++ {
		if err := down.Enqueue(rec("j1", "0", "n01", float64(100+i))); !errors.Is(err, ErrUnreachable) && err != nil {
			t.Fatal(err)
		}
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spilled := journal.entries
	if len(spilled) != 1 || spilled[0].Records != 2 {
		t.Fatalf("spilled = %+v, want one batch of 2 records", spilled)
	}

	// A restarted reporter replays from the file over a recorded pipe.
	reopened, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eard.NewDB(), Config{})
	var sent bytes.Buffer
	up := newTestClient(t, ClientConfig{
		Dial: func() (net.Conn, error) {
			conn, err := srv.Dial()
			return recordingConn{conn, &sent}, err
		},
		Journal: reopened,
	})
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent.Bytes(), onDisk) {
		t.Errorf("replay wrote\n %x\nthe journal file held\n %x", sent.Bytes(), onDisk)
	}
	f, err := wire.ReadFrame(&sent, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, spilled[0].image[wire.HeaderRoom:]) {
		t.Error("replayed payload differs from the journaled payload")
	}
	if st := srv.Stats(); st.RecordsAccepted != 1 || st.RecordsReplaced != 1 {
		t.Errorf("server stats after replay = %+v", st)
	}
	if reopened.Len() != 0 {
		t.Errorf("journal holds %d batches after the replay", reopened.Len())
	}
}

// watchedConn calls before ahead of every write: the moment a client is
// about to put its next frame on the wire.
type watchedConn struct {
	net.Conn
	before func() error
}

func (c watchedConn) Write(p []byte) (int, error) {
	if err := c.before(); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// backlogJournal spills n one-record batches, each its own job, to a
// fresh on-disk journal and returns its path.
func backlogJournal(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spill.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		b := wire.Batch{ID: BatchID("n01", uint64(i)), Node: "n01", Records: []eard.JobRecord{rec(fmt.Sprintf("j%d", i), "0", "n01", 100)}}
		if err := j.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestReplayCompactsJournalOnce: draining an on-disk backlog rewrites
// the file once, when the pass ends — not once per acked batch, each a
// rewrite of everything behind it and an fsync. Until then the file is
// the one the pass started from: every frame the client sends leaves
// with the journal file untouched. A pass that ends early, at the first
// batch the daemon cannot be reached for, compacts to what is left.
func TestReplayCompactsJournalOnce(t *testing.T) {
	const backlog, reachable = 64, 40
	for name, cut := range map[string]int{"drained": backlog, "daemon lost mid-pass": reachable} {
		path := backlogJournal(t, backlog)
		started, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(eard.NewDB(), Config{})
		frames := 0
		c := newTestClient(t, ClientConfig{MaxAttempts: 1, Journal: j, Dial: func() (net.Conn, error) {
			conn, err := srv.Dial()
			return watchedConn{conn, func() error {
				if now, err := os.Stat(path); err != nil || !os.SameFile(started, now) || now.Size() != started.Size() {
					t.Errorf("%s: the journal file was rewritten with %d batches acked (stat error %v)", name, frames, err)
				}
				if frames == cut {
					return errors.New("daemon lost")
				}
				frames++
				return nil
			}}, err
		}})
		err = c.Flush()
		if cut == backlog && (err != nil || frames != backlog) {
			t.Fatalf("%s: flush sent %d frames, err %v", name, frames, err)
		}
		if cut < backlog && !errors.Is(err, ErrUnreachable) {
			t.Fatalf("%s: flush err = %v, want ErrUnreachable", name, err)
		}
		if st := srv.Stats(); st.Batches != cut || st.RecordsAccepted != cut {
			t.Errorf("%s: server stats %+v, want %d batches", name, st, cut)
		}
		// What the next process finds is what was not delivered.
		left, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if left.Len() != backlog-cut || j.Len() != backlog-cut {
			t.Errorf("%s: %d batches left on disk, %d in memory, want %d", name, left.Len(), j.Len(), backlog-cut)
		}
		if ents := left.entries; len(ents) > 0 && ents[0].ID != BatchID("n01", uint64(cut+1)) {
			t.Errorf("%s: the journal now starts at %s", name, ents[0].ID)
		}
	}
}

// TestCrashMidReplayResendsAsDuplicates: a reporter that dies between
// an ack and the compaction that ends its replay pass leaves delivered
// batches in the file. The next process sends them again under their
// IDs; the daemon acks them as the redeliveries they are and stores
// nothing twice.
func TestCrashMidReplayResendsAsDuplicates(t *testing.T) {
	const backlog, delivered = 64, 40
	path := backlogJournal(t, backlog)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eard.NewDB(), Config{})
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	dying := newTestClient(t, ClientConfig{MaxAttempts: 1, Journal: j, Dial: func() (net.Conn, error) {
		conn, err := srv.Dial()
		return watchedConn{conn, func() error {
			if frames == delivered {
				return errors.New("reporter killed")
			}
			frames++
			return nil
		}}, err
	}})
	if err := dying.Flush(); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("flush err = %v, want ErrUnreachable", err)
	}
	// The crash: the pass never got to compact.
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenJournal(path)
	if err != nil || reopened.Len() != backlog {
		t.Fatalf("reopened journal holds %d batches, err %v", reopened.Len(), err)
	}
	next := newTestClient(t, ClientConfig{Journal: reopened, Dial: srv.Dial})
	if err := next.Flush(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Batches != delivered+backlog || st.DuplicateBatches != delivered || st.RecordsAccepted != backlog || st.RecordsReplaced != 0 {
		t.Errorf("server stats %+v: want %d batches, %d of them duplicates, %d records accepted once", st, delivered+backlog, delivered, backlog)
	}
	if n := srv.DB().Len(); n != backlog {
		t.Errorf("the database holds %d records, want %d", n, backlog)
	}
	if cs := next.Stats(); cs.BatchesReplayed != backlog || reopened.Len() != 0 {
		t.Errorf("second pass replayed %d batches and left %d", cs.BatchesReplayed, reopened.Len())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("drained journal file still exists: %v", err)
	}
}

// FuzzJournalTail cuts a valid journal file at an arbitrary point: what
// reloads is exactly the whole frames before the cut, and the torn
// tail is gone from the file.
func FuzzJournalTail(f *testing.F) {
	f.Add(uint16(0), int64(1))
	f.Add(uint16(13), int64(2))
	f.Add(uint16(400), int64(3))
	f.Add(uint16(65535), int64(4))
	f.Fuzz(func(t *testing.T, cut uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var batches []wire.Batch
		var ends []int // file offset after each frame
		var file []byte
		for i := 0; i < 1+rng.Intn(5); i++ {
			b := journalBatch(BatchID("n01", uint64(i+1)), rng.Intn(4))
			batches = append(batches, b)
			file = append(file, journalFile(t, b)...)
			ends = append(ends, len(file))
		}
		at := int(cut) % (len(file) + 1)
		whole := 0
		for whole < len(ends) && ends[whole] <= at {
			whole++
		}
		path := filepath.Join(t.TempDir(), "spill.journal")
		if err := os.WriteFile(path, file[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", at, len(file), err)
		}
		ents := j.entries
		if len(ents) != whole {
			t.Fatalf("cut at %d of %d: reloaded %d batches, want %d", at, len(file), len(ents), whole)
		}
		for i, e := range ents {
			if e.ID != batches[i].ID || e.Records != len(batches[i].Records) {
				t.Errorf("entry %d = %s (%d records), want %s (%d)", i, e.ID, e.Records, batches[i].ID, len(batches[i].Records))
			}
		}
		after, err := os.ReadFile(path)
		if whole == 0 {
			if !os.IsNotExist(err) && len(after) != 0 {
				t.Errorf("nothing whole survived, yet the file holds %d bytes", len(after))
			}
			return
		}
		if err != nil || !bytes.Equal(after, file[:ends[whole-1]]) {
			t.Errorf("file after reload is not the %d whole frames (err %v)", whole, err)
		}
	})
}

func benchJournalBatches(n int) []wire.Batch {
	out := make([]wire.Batch, n)
	for i := range out {
		b := wire.Batch{ID: BatchID("node00001", uint64(i+1)), Node: "node00001"}
		for r := 0; r < 32; r++ {
			b.Records = append(b.Records, rec("job"+string(rune('0'+r%3)), "0", "node00001", 30000+float64(r)))
		}
		out[i] = b
	}
	return out
}

// TestJournalAllocations pins what spilling and replaying cost, in
// BenchmarkJournalAppend's and BenchmarkJournalReplay's shapes. 64
// 32-record batches appended to a memory-only journal allocate an
// image each and the entry list's doublings: 72. The same journal
// drained into a live server through a real client — a frame write,
// the server's store and ack, and a removal per batch — is counted
// around Flush over every goroutine, so a replay reads its floor of 28
// or, when the runtime or the server's last bookkeeping lands inside
// the window, more: the lowest of 20 replays is pinned. It was 92
// while the server opened a literal block for every batch frame; its
// connection now keeps one, and a batch that names the node and jobs
// the last one did copies only its ID.
func TestJournalAllocations(t *testing.T) {
	batches := benchJournalBatches(64)
	spill := func() *Journal {
		j, err := OpenJournal("")
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range batches {
			if err := j.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		return j
	}
	want := 72.0
	if raceOn {
		want += 64 // each image grows from nothing
	}
	if n := testing.AllocsPerRun(10, func() { spill() }); n != want {
		t.Errorf("64 batches spilled: %v allocations, want %v", n, want)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	floor := uint64(math.MaxUint64)
	for i := 0; i < 20; i++ {
		j := spill()
		srv := NewServer(eard.NewDB(), Config{})
		c, err := NewClient(ClientConfig{
			Node: "node00001", Dial: srv.Dial, Clock: NewFakeClock(0),
			Jitter: rand.New(rand.NewSource(1)), Journal: j,
		})
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err = c.Flush()
		runtime.ReadMemStats(&m1)
		if err != nil || j.Len() != 0 {
			t.Fatalf("replay: %v, %d batches left", err, j.Len())
		}
		floor = min(floor, m1.Mallocs-m0.Mallocs)
		_, _ = c.Close(), srv.Close()
	}
	if floor != 28 {
		t.Errorf("64 batches replayed: %d allocations at the least, want 28", floor)
	}
}

// BenchmarkJournalAppend spills 32-record batches to a memory-only
// journal: the encode and bookkeeping cost without the fsync a file-
// backed journal adds on top.
func BenchmarkJournalAppend(b *testing.B) {
	batches := benchJournalBatches(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := OpenJournal("")
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := j.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkJournalReplay drains a 64-batch memory journal into a live
// server through a real client: per batch a frame write, the server's
// store and ack, and a journal removal.
func BenchmarkJournalReplay(b *testing.B) {
	batches := benchJournalBatches(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, err := OpenJournal("")
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := j.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
		srv := NewServer(eard.NewDB(), Config{})
		c, err := NewClient(ClientConfig{
			Node: "node00001", Dial: srv.Dial, Clock: NewFakeClock(0),
			Jitter: rand.New(rand.NewSource(1)), Journal: j,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if j.Len() != 0 {
			b.Fatalf("%d batches left after the replay", j.Len())
		}
		_ = c.Close()
		b.StartTimer()
	}
}
