package eardbd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// The compatibility corpus (testdata/compat) holds what one build wrote
// for every later one to read: a frame of every batch, query and result
// kind, a spill journal whose last frame a crash cut short, and the two
// files `eardbd -db F` writes (F and F.state). A later build must read
// each file, or refuse it with the error refused names. A format change
// adds files under new names and never edits the old ones. A file this
// build writes and the corpus lacks is written by TestCompatCorpus,
// which then fails, so that it gets committed.
const compatDir = "testdata/compat"

// refused names the corpus files this build no longer reads, each with
// the documented error it refuses them with (errors.Is): wire.ErrVersion
// for a frame or journal of another protocol version, say. A build that
// drops a format lists its files here; none has yet.
var refused = map[string]error{}

// compatAckID is the batch the corpus's ack frame acknowledges.
const compatAckID = "n02/1"

// compatBatches is the corpus's script: three nodes' node reports and
// accounting windows, one node's report replaced.
func compatBatches() []wire.Batch {
	var out []wire.Batch
	for i, node := range []string{"n01", "n02", "n03"} {
		out = append(out, wire.Batch{ID: node + "/1", Node: node,
			Records: []eard.JobRecord{rec("j1", "0", node, 200+float64(i)), rec("j2", "0", node, 210+float64(i))},
			Acct: []accounting.Record{{
				V: accounting.CodecVersion, JobID: "j1", StepID: "0", User: "alice", Node: node, Policy: "min_energy",
				Phase: i, StartSec: 60 * float64(i), EndSec: 60 * float64(i+1), PkgJ: 600, DramJ: 100, NodeJ: 1000,
			}},
		})
	}
	return append(out, wire.Batch{ID: "n01/2", Node: "n01", Records: []eard.JobRecord{rec("j1", "0", "n01", 230)}})
}

// compatCorpus is what this build writes into the corpus, by file name.
func compatCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	frame := func(name string, f wire.Frame) {
		var b bytes.Buffer
		if err := wire.WriteFrame(&b, f, 0); err != nil {
			t.Fatal(err)
		}
		files[name] = b.Bytes()
	}
	srv := NewServer(eard.NewDB(), Config{})
	conn, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	var since int // the generation before the last batch, which replaces n01's report
	var journal bytes.Buffer
	for i, b := range compatBatches() {
		sendAcked(t, srv, conn, b)
		if i == len(compatBatches())-2 {
			g, _ := srv.Generation(nil)
			since = int(g.Gen)
		}
		if err := wire.WriteFrame(&journal, mustBatch(t, b), 0); err != nil {
			t.Fatal(err)
		}
	}
	_ = conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	files["torn.journal"] = journal.Bytes()[:journal.Len()-5]
	frame("batch.frame", mustBatch(t, compatBatches()[1]))
	ack, err := wire.EncodeAck(wire.Ack{BatchID: compatAckID, Accepted: 2, Duplicate: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame("ack.frame", ack)
	frame("error.frame", wire.Frame{Type: wire.TypeError, Payload: wire.AppendError(nil, "batch has no id")})
	for name, q := range map[string]wire.Query{
		wire.QueryStats:       {Kind: wire.QueryStats},
		wire.QueryAggregate:   {Kind: wire.QueryAggregate},
		wire.QueryJobs:        {Kind: wire.QueryJobs},
		wire.QuerySummary:     {Kind: wire.QuerySummary, Job: "j1", Step: "0"},
		wire.QueryNodePowers:  {Kind: wire.QueryNodePowers},
		wire.QueryRecords:     {Kind: wire.QueryRecords},
		wire.QueryAcctJobs:    {Kind: wire.QueryAcctJobs, User: "alice", Since: 30, Limit: 2},
		wire.QueryAcctRecords: {Kind: wire.QueryAcctRecords},
		wire.QueryGeneration:  {Kind: wire.QueryGeneration},
		"changes-0":           {Kind: wire.QueryChanges},
		"changes-since":       {Kind: wire.QueryChanges, Limit: since},
	} {
		qf, err := wire.EncodeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if name == "changes-since" {
			qf.Trace = trace.Context{TraceID: 0x1d, SpanID: 0x2e, Flags: 1} // one traced frame
		}
		frame("query-"+name+".frame", qf)
		payload, err := Answer(nil, srv, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		frame("result-"+name+".frame", wire.Frame{Type: wire.TypeResult, Payload: payload})
	}
	var db bytes.Buffer
	if err := srv.DB().Save(&db); err != nil {
		t.Fatal(err)
	}
	files["state.json"] = db.Bytes()
	var state bytes.Buffer
	if err := json.NewEncoder(&state).Encode(srv.Saved()); err != nil { // as eardbd -db writes it
		t.Fatal(err)
	}
	files["state.json.state"] = state.Bytes()
	return files
}

// readCompat reads one corpus file as the build reads its kind: a
// frame decoded by its type and, for a result, its kind; a journal
// opened, from a copy, since opening rewrites a torn one; a state file
// pair loaded and restored as `eardbd -db` boots from it.
func readCompat(t *testing.T, name string) error {
	path := filepath.Join(compatDir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(name, ".frame"):
		return readCompatFrame(data)
	case strings.HasSuffix(name, ".journal"):
		copied := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(copied, data, 0o644); err != nil {
			return err
		}
		j, err := OpenJournal(copied)
		if err == nil && j.Len() != len(compatBatches())-1 {
			err = fmt.Errorf("loaded %d batches, want the %d whole ones", j.Len(), len(compatBatches())-1)
		}
		return err
	case strings.HasSuffix(name, ".state"):
		return nil // read with its pair
	default:
		db, err := eard.LoadFile(path)
		if err != nil {
			return err
		}
		var sv Saved
		state, err := os.ReadFile(path + ".state")
		if err == nil {
			err = json.Unmarshal(state, &sv)
		}
		if err == nil {
			err = NewServer(db, Config{}).Restore(sv)
		}
		if err == nil && (db.Len() == 0 || len(sv.Powers) == 0 || len(sv.Acct) == 0 || sv.Gen == 0) {
			err = fmt.Errorf("restored %d records, %d powers, %d accounting records at generation %d: want some of each",
				db.Len(), len(sv.Powers), len(sv.Acct), sv.Gen)
		}
		return err
	}
}

// readCompatFrame decodes one frame's body by its type.
func readCompatFrame(data []byte) error {
	f, err := wire.ReadFrame(bytes.NewReader(data), 0)
	if err != nil {
		return err
	}
	switch f.Type {
	case wire.TypeBatch:
		_, err = f.AsBatch()
	case wire.TypeAck:
		if !f.AcksBatch(compatAckID) {
			err = fmt.Errorf("the ack does not acknowledge %s", compatAckID)
		}
	case wire.TypeError:
		_, err = f.AsError()
	case wire.TypeQuery:
		_, err = f.AsQuery()
	default:
		var res wire.Result
		if res, err = f.AsResult(); err != nil {
			return err
		}
		var v any = new(any)
		switch res.Kind {
		case wire.QueryRecords:
			v = new([]eard.JobRecord)
		case wire.QueryAcctRecords:
			v = new([]accounting.Record)
		case wire.QueryAcctJobs:
			v = new(accounting.Page)
		case wire.QueryNodePowers:
			v = new([]wire.NodePower)
		case wire.QueryGeneration:
			v = new(wire.Generation)
		case wire.QueryChanges:
			v = new(wire.Changes)
		}
		err = res.Decode(v)
	}
	return err
}

// TestCompatCorpus reads every file of the compatibility corpus, after
// writing any this build writes that the corpus lacks.
func TestCompatCorpus(t *testing.T) {
	for name, data := range compatCorpus(t) {
		path := filepath.Join(compatDir, name)
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err := os.MkdirAll(compatDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("wrote %s, which the corpus lacked: commit it", path)
	}
	entries, err := os.ReadDir(compatDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		err := readCompat(t, name)
		if want, ok := refused[name]; ok {
			if !errors.Is(err, want) {
				t.Errorf("%s: read with err = %v, want it refused with %v", name, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
