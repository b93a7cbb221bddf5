package eardbd

import (
	"cmp"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/wire"
)

// acctWindow is one accounting record of a job on a node, owned by user.
func acctWindow(job, user, node string, phase int, nodeJ float64) accounting.Record {
	return accounting.Record{
		V: accounting.CodecVersion, JobID: job, StepID: "0", User: user, Node: node, Policy: "min_energy",
		Phase: phase, StartSec: 60 * float64(phase), EndSec: 60 * float64(phase+1),
		PkgJ: 0.6 * nodeJ, DramJ: 0.1 * nodeJ, UncoreJ: 0.1 * nodeJ, NodeJ: nodeJ, AvgCPUGHz: 2.1, AvgIMCGHz: 2.4,
	}
}

// compareKeys orders accounting keys canonically: job, step, node,
// phase.
func compareKeys(a, b accounting.Key) int {
	return cmp.Or(strings.Compare(a.JobID, b.JobID), strings.Compare(a.StepID, b.StepID),
		strings.Compare(a.Node, b.Node), cmp.Compare(a.Phase, b.Phase))
}

func keyOf(r *accounting.Record) accounting.Key {
	return accounting.Key{JobID: r.JobID, StepID: r.StepID, Node: r.Node, Phase: r.Phase}
}

// inOrder reports the first record of recs that does not sort strictly
// after the one before it, or -1.
func inOrder(recs []accounting.Record) int {
	for i := 1; i < len(recs); i++ {
		if compareKeys(keyOf(&recs[i-1]), keyOf(&recs[i])) >= 0 {
			return i
		}
	}
	return -1
}

// TestShardServesFromRowsWhileBatchesLand: a shard serves acct_jobs
// pages and its whole view (changes from zero) from its live stores'
// rows while writers land batches of node reports
// and accounting records — new jobs, new nodes of a job, replaced
// windows. Every page decodes with exactly the records its count names,
// its Total is at least that count, its Next is the cursor of its last
// record, and the page that cursor asks for starts strictly after it;
// every view decodes whole and in canonical order. Under
// -race, a read of the rows outside the store's lock is a reported race.
func TestShardServesFromRowsWhileBatchesLand(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	t.Cleanup(func() { _ = srv.Close() })
	const writers, batches, readers = 2, 40, 3
	users := []string{"alice", "bob"}

	var wg sync.WaitGroup
	done := make(chan struct{})
	var writing sync.WaitGroup
	for w := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			conn, err := srv.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for i := range batches {
				node := fmt.Sprintf("w%d-n%02d", w, i%8)
				job := fmt.Sprintf("job%02d", i%10)
				b := wire.Batch{ID: fmt.Sprintf("%s/%d", node, i), Node: node,
					Records: []eard.JobRecord{rec(job, "0", node, 200+float64(i))},
					Acct: []accounting.Record{
						acctWindow(job, users[i%2], node, 0, 1000+float64(i)),
						acctWindow(job, users[i%2], node, 1+i%3, 2000),
					}}
				f, err := wire.EncodeBatch(b)
				if err == nil {
					err = wire.WriteFrame(conn, f, 0)
				}
				var ack wire.Frame
				if err == nil {
					ack, err = wire.ReadFrame(conn, 0)
				}
				if err != nil || !ack.AcksBatch(b.ID) {
					t.Errorf("batch %s: %v, answered by a %s frame", b.ID, err, ack.Type)
					return
				}
			}
		}()
	}
	go func() { writing.Wait(); close(done) }()

	// read asks one query over conn and decodes its result into v.
	read := func(conn net.Conn, q wire.Query, v any) error {
		res, err := Query(conn, q, 0)
		if err == nil {
			err = res.Decode(v)
		}
		if err != nil {
			return fmt.Errorf("%s %+v: %w", q.Kind, q, err)
		}
		return nil
	}
	// walk pages through one user's records, or everyone's, to the end.
	walk := func(conn net.Conn, user string, limit int) error {
		q := wire.Query{Kind: wire.QueryAcctJobs, User: user, Limit: limit}
		var after *accounting.Key
		for {
			var page accounting.Page
			if err := read(conn, q, &page); err != nil {
				return err
			}
			n := len(page.Records)
			switch {
			case n > limit || page.Total < n:
				return fmt.Errorf("cursor %q: %d records on a page of %d, total %d", q.Cursor, n, limit, page.Total)
			case page.Next != "" && (n != limit || page.Next != accounting.EncodeCursor(keyOf(&page.Records[n-1]))):
				return fmt.Errorf("cursor %q: %d of %d records, next %q does not name the last of them", q.Cursor, n, limit, page.Next)
			case n > 0 && after != nil && compareKeys(*after, keyOf(&page.Records[0])) >= 0:
				return fmt.Errorf("cursor %q: the page starts at %+v, not after %+v", q.Cursor, keyOf(&page.Records[0]), *after)
			case inOrder(page.Records) >= 0:
				return fmt.Errorf("cursor %q: the page is out of order at %d", q.Cursor, inOrder(page.Records))
			}
			for i := range page.Records {
				if user != "" && page.Records[i].User != user {
					return fmt.Errorf("a page of %s's records holds %s's", user, page.Records[i].User)
				}
			}
			if page.Next == "" {
				return nil
			}
			if n > 0 {
				k := keyOf(&page.Records[n-1])
				after = &k
			}
			q.Cursor = page.Next
		}
	}
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := srv.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for i := 0; ; i++ {
				var whole wire.Changes
				err := walk(conn, users[(r+i)%2], 3+i%5)
				if err == nil {
					err = read(conn, wire.Query{Kind: wire.QueryChanges}, &whole)
				}
				if err == nil && inOrder(whole.Acct) >= 0 {
					err = fmt.Errorf("a view of %d accounting records is out of order", len(whole.Acct))
				}
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	<-done

	// Quiet now: everything the writers sent is served, to the record.
	conn, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var whole wire.Changes
	if err := read(conn, wire.Query{Kind: wire.QueryChanges}, &whole); err != nil || len(whole.Acct) != srv.acct.Len() || len(whole.Acct) == 0 {
		t.Fatalf("the whole view holds %d accounting records (%v), the store %d", len(whole.Acct), err, srv.acct.Len())
	}
	if err := walk(conn, "", 7); err != nil {
		t.Fatal(err)
	}
}
