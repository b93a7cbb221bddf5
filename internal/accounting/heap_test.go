package accounting_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"goear/internal/accounting"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// discard is a transport that drops what is written.
type discard struct{}

func (discard) Read([]byte) (int, error)    { return 0, io.EOF }
func (discard) Write(p []byte) (int, error) { return len(p), nil }

// streamView streams s as a whole view through a connection of its own,
// which is garbage afterwards.
func streamView(t *testing.T, s *accounting.Store) {
	t.Helper()
	var c wire.Conn
	c.Reset(discard{})
	image, err := c.AppendChanges(c.Body(), &wire.Changes{AcctStore: s})
	if err == nil {
		err = c.Send(wire.TypeResult, trace.Context{}, image)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// liveHeap is the heap a full collection leaves live.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestStoreHoldsOneCopy: a 3,000-record store holds its records once,
// in its rows. Selecting a page, encoding a page as the wire serves it
// and encoding the store into a whole view (changes from zero) leave the
// live heap less than 1 KiB larger than they found it; a store that kept a canonical copy
// beside its rows grew by about half a megabyte here.
func TestStoreHoldsOneCopy(t *testing.T) {
	s := accounting.NewStore(nil)
	for j := 0; j < 15; j++ {
		for n := 0; n < 200; n++ {
			r, err := accounting.NewRecord(
				accounting.Meta{JobID: fmt.Sprintf("job%d", j), StepID: "0", User: []string{"alice", "bob", "carol"}[j%3]},
				accounting.Window{Node: fmt.Sprintf("node%03d", n), StartSec: float64(60 * j), EndSec: float64(60 * (j + 1))},
				accounting.Energy{PkgJ: 1000, DramJ: 100, UncoreJ: 50, NodeJ: 1300},
				accounting.Rates{AvgCPUGHz: 2.1, AvgIMCGHz: 2.4},
			)
			if err == nil {
				_, err = s.Insert(r)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	q := accounting.Query{User: "alice", Limit: 200}
	before := liveHeap()
	if _, _, _, err := s.Select(q, func(int) {}, func(*accounting.Record) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := (*wire.Conn)(nil).AppendAcctPage(nil, s, q); err != nil {
		t.Fatal(err)
	}
	streamView(t, s)
	if grown := int64(liveHeap()) - int64(before); grown >= 1<<10 {
		t.Errorf("a page selected, a page encoded and a whole view encoded left the live heap %d bytes larger, want under 1 KiB", grown)
	}
	runtime.KeepAlive(s)
}
