package eardbd

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"goear/internal/eard"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Journal is the client's local spill store: batches the daemon could
// not be reached for are appended here and replayed on reconnect.
// Entries keep the batch ID they were first sent under, so a replay of
// a batch whose ack was lost is recognized server-side and dropped —
// the exactly-once half of the degradation contract.
//
// The on-disk format is the wire format: the file is the concatenation
// of the exact untraced TypeBatch frames that would have been sent,
// each appended with one synchronous write. Replaying an entry sends
// its image under a fresh header; nothing is decoded, re-encoded or
// copied. Removal compacts the file through a temp-file rename: one
// entry at a time through Remove, or — a client draining its backlog —
// once for everything a replay pass delivered (dropHead, compact). A
// journal opened with an empty path lives purely in memory, which the
// deterministic tests use.
type Journal struct {
	mu      sync.Mutex
	path    string
	entries []EncodedBatch
	stale   bool // the file still holds entries dropHead took out
}

// EncodedBatch is one batch ready for the wire: its ID and record
// count (node reports and accounting records together), and the
// encoded TypeBatch body behind the header room a connection sends it
// from (wire.Conn.WriteImage). It is what the journal stores and what a
// replay sends; an entry obtained from the journal shares its bytes
// with it, and only a send or the journal's write of it to its file may
// write to them — to the room.
type EncodedBatch struct {
	ID      string
	Records int
	image   []byte
}

// journalMaxFrame bounds a journal frame only by what the header's
// length field can say: what may be spilled is the client's frame
// limit to decide, not the journal's.
const journalMaxFrame = math.MaxInt32

// OpenJournal opens (or creates) the journal at path, loading any
// batches a previous run spilled. A final frame cut short by a crash
// mid-append is tolerated: the torn tail is discarded and the file
// rewritten without it. Anything else that does not read as a batch
// frame is corruption and errors, and so does a journal in the JSON-
// lines format that predates wire version 2. An empty path returns a
// memory-only journal.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path}
	if path == "" {
		return j, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("eardbd: open journal: %w", err)
	}
	// Read-only descriptor: no buffered writes to lose on close.
	defer func() { _ = f.Close() }()
	var first [1]byte
	if _, err := f.ReadAt(first[:], 0); err == nil && first[0] == '{' {
		return nil, fmt.Errorf("eardbd: journal %s is in the pre-v2 JSON-lines format, which this version cannot replay; drain it with the release that wrote it or move it aside", path)
	}
	c := wire.Conn{MaxPayload: journalMaxFrame}
	c.Reset(f)
	var b wire.Batch // one scratch: only the ID and the counts are kept
	for {
		fr, err := c.Read()
		if err == io.EOF {
			return j, nil
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// Crash-torn tail: keep the whole frames before it.
			return j, j.rewrite()
		}
		if err == nil {
			err = fr.DecodeBatch(&b)
		}
		if err != nil {
			return nil, fmt.Errorf("eardbd: journal %s corrupt after %d batches: %w", path, len(j.entries), err)
		}
		// The frame was read without room in front of it: copy it behind
		// some.
		image := append(make([]byte, wire.HeaderRoom, wire.HeaderRoom+len(fr.Payload)), fr.Payload...)
		j.entries = append(j.entries, EncodedBatch{ID: b.ID, Records: len(b.Records) + len(b.Acct), image: image})
	}
}

// Append spills one batch, persisting before returning so a crash
// after Append cannot lose it.
func (j *Journal) Append(b wire.Batch) error {
	return j.appendEncoded(EncodedBatch{ID: b.ID, Records: len(b.Records) + len(b.Acct), image: wire.BatchImage(nil, b)})
}

// appendEncoded spills a batch that is already encoded; the journal
// keeps e's image.
func (j *Journal) appendEncoded(e EncodedBatch) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.path != "" {
		f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("eardbd: append journal: %w", err)
		}
		c := wire.Conn{MaxPayload: journalMaxFrame}
		c.Reset(f)
		werr := c.WriteImage(wire.TypeBatch, trace.Context{}, e.image)
		serr := f.Sync()
		cerr := f.Close()
		for _, err := range []error{werr, serr, cerr} {
			if err != nil {
				return fmt.Errorf("eardbd: append journal: %w", err)
			}
		}
	}
	j.entries = append(j.entries, e)
	return nil
}

// Remove drops the batch with the given ID (after its replay was
// acknowledged) and compacts the file before it returns.
func (j *Journal) Remove(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	kept := j.entries[:0]
	for _, e := range j.entries {
		if e.ID != id {
			kept = append(kept, e)
		}
	}
	clear(j.entries[len(kept):]) // let removed payloads go
	j.entries = kept
	return j.rewrite()
}

// head returns the oldest spilled batch, if there is one.
func (j *Journal) head() (EncodedBatch, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.entries) == 0 {
		return EncodedBatch{}, false
	}
	return j.entries[0], true
}

// dropHead takes the oldest batch out of the journal in memory only:
// the file keeps it until compact. A replay pass drops every batch it
// delivers and compacts once when it ends, so a backlog of N batches
// costs one rewrite and one fsync, not N rewrites of N…1 frames. A crash
// in between leaves delivered batches in the file; the next process
// sends them again under their IDs and the daemon drops them as
// redeliveries — the contract a lost ack already relies on.
func (j *Journal) dropHead() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[0] = EncodedBatch{} // let the image go
	j.entries = j.entries[1:]
	j.stale = true
}

// compact brings the file in line with what dropHead left.
func (j *Journal) compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.stale {
		return nil
	}
	err := j.rewrite()
	j.stale = err != nil
	return err
}

// Len returns the number of spilled batches.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// maxSeq returns the highest numeric suffix among journaled batch IDs
// of the form "<node>/<seq>".
func (j *Journal) maxSeq(node string) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	var max uint64
	prefix := node + "/"
	for _, e := range j.entries {
		seq, ok := strings.CutPrefix(e.ID, prefix)
		if !ok {
			continue
		}
		if n, err := strconv.ParseUint(seq, 10, 64); err == nil && n > max {
			max = n
		}
	}
	return max
}

// rewrite persists the in-memory entries atomically (eard.WriteFile).
// Callers hold mu.
func (j *Journal) rewrite() error {
	if j.path == "" {
		return nil
	}
	if len(j.entries) == 0 {
		if err := os.Remove(j.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("eardbd: clear journal: %w", err)
		}
		return nil
	}
	err := eard.WriteFile(j.path, func(w io.Writer) error {
		c := wire.Conn{MaxPayload: journalMaxFrame}
		c.Reset(writeEnd{w})
		for _, e := range j.entries {
			if err := c.WriteImage(wire.TypeBatch, trace.Context{}, e.image); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("eardbd: rewrite journal: %w", err)
	}
	return nil
}
