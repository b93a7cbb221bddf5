// Package dbdtest is a goearvet test fixture loaded under the import
// path "fix/internal/loadgen" so the fixture analyzer treats it as a
// test-helper package. It imports the real wire and eardbd packages;
// the // want comments are golden expectations consumed by the
// analyzer tests.
package dbdtest

import (
	"encoding/json"
	"fmt"
	"io"

	"goear/internal/accounting"
	"goear/internal/eardbd"
	"goear/internal/wire"
)

// badFrame hand-rolls a frame, bypassing the versioned encoder.
func badFrame(payload []byte) wire.Frame {
	return wire.Frame{Type: wire.TypeBatch, Payload: payload} // want `wire\.Frame composite literal in a fixture helper`
}

// goodFrame goes through the constructor.
func goodFrame(b wire.Batch) (wire.Frame, error) {
	return wire.EncodeBatch(b)
}

// badSprintfID re-derives the batch-ID format; the import of eardbd is
// present, so the finding carries a fix rewriting to eardbd.BatchID.
func badSprintfID(node string, seq uint64) wire.Batch {
	return wire.Batch{
		ID:   fmt.Sprintf("%s/%d", node, seq), // want `batch ID assembled with fmt\.Sprintf`
		Node: node,
	}
}

// badSprintfShape uses Sprintf with the wrong verb shape: still
// flagged, but with no mechanical rewrite.
func badSprintfShape(node string, seq uint64) wire.Batch {
	return wire.Batch{
		ID:   fmt.Sprintf("%s-%d", node, seq), // want `batch ID assembled with fmt\.Sprintf`
		Node: node,
	}
}

// goodID builds the ID through the one owner of the format.
func goodID(node string, seq uint64) wire.Batch {
	return wire.Batch{ID: eardbd.BatchID(node, seq), Node: node}
}

// badMarshal hand-marshals a batch the way a spill entry used to be
// written. The journal holds wire frames now: JSON of a batch is a
// format nothing reads.
func badMarshal(b wire.Batch) ([]byte, error) {
	return json.Marshal(b) // want `encoding/json call on a wire\.Batch`
}

// badMarshalIndent is the pretty-printed variant of the same mistake.
func badMarshalIndent(b *wire.Batch) ([]byte, error) {
	return json.MarshalIndent(b, "", "  ") // want `encoding/json call on a wire\.Batch`
}

// badUnmarshal decodes a "journal line" into a batch: the reading half
// of the same mistake.
func badUnmarshal(line []byte) (wire.Batch, error) {
	var b wire.Batch
	err := json.Unmarshal(line, &b) // want `encoding/json call on a wire\.Batch`
	return b, err
}

// badEncodeEntries streams journal entries and frames through a JSON
// encoder: methods of encoding/json count as much as its functions.
func badEncodeEntries(w io.Writer, entries []eardbd.EncodedBatch, f wire.Frame) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(entries); err != nil { // want `encoding/json call on a journal entry \(eardbd\.EncodedBatch\)`
		return err
	}
	return enc.Encode(f) // want `encoding/json call on a wire\.Frame`
}

// goodMarshal of a non-wire type is fine.
func goodMarshal(v map[string]int) ([]byte, error) {
	return json.Marshal(v)
}

// goodSpill writes spill entries the way the client does.
func goodSpill(j *eardbd.Journal, b wire.Batch) error {
	return j.Append(b)
}

// badRecord hand-rolls a job energy record: the codec version field is
// unset (or worse, a stale constant), so the fixture rots silently
// when the accounting codec is bumped.
func badRecord(node string) accounting.Record {
	return accounting.Record{JobID: "j1", StepID: "0", User: "alice", Node: node} // want `accounting\.Record composite literal in a fixture helper`
}

// goodRecord builds the record through the versioned constructor,
// which stamps CodecVersion and validates every field.
func goodRecord(node string) (accounting.Record, error) {
	return accounting.NewRecord(
		accounting.Meta{JobID: "j1", StepID: "0", User: "alice"},
		accounting.Window{Node: node, EndSec: 120},
		accounting.Energy{PkgJ: 1000, DramJ: 100, UncoreJ: 50, NodeJ: 1200},
		accounting.Rates{AvgCPUGHz: 2.1, AvgIMCGHz: 2.4},
	)
}
