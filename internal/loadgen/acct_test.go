package loadgen

import (
	"encoding/json"
	"testing"

	"goear/internal/accounting"
)

// TestAcctByteIdenticalAcrossShardCounts is the closed-loop golden of
// the accounting tier: the same job traffic pushed through 1, 2 and 4
// shards — real clients, real batching, record dedup — must merge to
// byte-identical record dumps and byte-identical query pages at the
// federation root. The root's page must also match what the shard
// daemon itself serves, so clients cannot tell a root from a daemon.
func TestAcctByteIdenticalAcrossShardCounts(t *testing.T) {
	const nodes = 30
	var refDump, refPage []byte
	for _, shards := range []int{1, 2, 4} {
		cluster, _, res := runLoad(t, nodes, shards, Config{Workers: 8, AcctPerNode: 3}, Hooks{})
		if res.BacklogBatches != 0 || res.NodeErrors != 0 {
			t.Fatalf("shards=%d: result = %+v", shards, res)
		}
		root, err := cluster.Root()
		if err != nil {
			t.Fatal(err)
		}
		v, err := root.View(nil)
		if err != nil {
			t.Fatal(err)
		}
		acct := v.Acct
		recs := acct.Snapshot()
		if len(recs) == 0 {
			t.Fatalf("shards=%d: no accounting records surfaced", shards)
		}
		dump, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		q := accounting.Query{User: "alice", Limit: 7}
		page, err := root.AcctQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		pageBlob, err := json.Marshal(page)
		if err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			// Through the root and straight off the daemon must be the
			// same bytes: the serving tier stacks transparently.
			direct, err := cluster.Server("shard0").Acct().Query(q)
			if err != nil {
				t.Fatal(err)
			}
			directBlob, err := json.Marshal(direct)
			if err != nil {
				t.Fatal(err)
			}
			if string(directBlob) != string(pageBlob) {
				t.Fatal("root page differs from the daemon's own page")
			}
			refDump, refPage = dump, pageBlob
			continue
		}
		if string(dump) != string(refDump) {
			t.Fatalf("shards=%d: merged accounting records differ from single-shard run", shards)
		}
		if string(pageBlob) != string(refPage) {
			t.Fatalf("shards=%d: query page differs from single-shard run", shards)
		}
	}
}

// TestAcctRootCacheHits pins the root's view cache: with ingest quiet, a
// repeated query is served from the generation-keyed cache and the
// root's stats say so.
func TestAcctRootCacheHits(t *testing.T) {
	cluster, _, res := runLoad(t, 10, 2, Config{Workers: 4, AcctPerNode: 2}, Hooks{})
	if res.NodeErrors != 0 {
		t.Fatalf("result = %+v", res)
	}
	root, err := cluster.Root()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := root.AcctQuery(accounting.Query{Limit: 5}); err != nil {
			t.Fatal(err)
		}
	}
	st := root.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Fatalf("cache stats = %d hits / %d misses, want 2/1", st.CacheHits, st.CacheMisses)
	}
	// The merged view also answers the node-report queries; those ride
	// the same cache.
	if _, err := root.Aggregate(); err != nil {
		t.Fatal(err)
	}
	if st = root.Stats(); st.CacheHits != 3 {
		t.Fatalf("aggregate after acct query missed the cache: %+v", st)
	}
}

// TestAcctGeneratorDeterminism pins the workload itself: two
// generators with the same seed produce identical job records, and
// different worker counts deliver the same store state (the enqueue
// path is per-node ordered).
func TestAcctGeneratorDeterminism(t *testing.T) {
	mk := func(workers int) []byte {
		t.Helper()
		cluster, _, res := runLoad(t, 20, 2, Config{Workers: workers, AcctPerNode: 2}, Hooks{})
		if res.NodeErrors != 0 || res.BacklogBatches != 0 {
			t.Fatalf("result = %+v", res)
		}
		root, err := cluster.Root()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Snapshot(root)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if a, b := mk(1), mk(8); string(a) != string(b) {
		t.Fatal("federation snapshot differs between Workers=1 and Workers=8")
	}
}
