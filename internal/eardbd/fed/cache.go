package fed

import (
	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Root-side snapshot caching. The merge-heavy queries (aggregate, job
// summaries, the accounting tier) all reduce to one folded view of
// every shard's record dumps. Rebuilding that view per query is fine
// at eargm snapshot rate and wrong for a dashboard tier taking
// repeated reads, so the root keys the folded view by the vector of
// shard ingest generations: a query polls the cheap generation counter
// on every shard, and only a moved generation pays for record dumps
// and a re-fold. The rebuilt view runs the exact same insertion
// arithmetic as an uncached fold, so caching is invisible to the
// byte-identity contract — it only changes how often the fold runs.

// shardGenerations polls every shard's ingest generation counter.
func (r *Root) shardGenerations(parent *trace.Active) ([]uint64, error) {
	gens := make([]uint64, len(r.cfg.Shards))
	err := r.fanOut(parent, wire.Query{Kind: wire.QueryGeneration}, func(i int, res wire.Result) error {
		var g wire.Generation
		if err := res.Decode(&g); err != nil {
			return err
		}
		gens[i] = g.Gen
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gens, nil
}

func equalGens(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergedState returns the folded cluster view — node-report database
// plus accounting store — from cache when no shard generation has
// moved, rebuilding it otherwise. Published views are immutable:
// invalidation swaps in freshly built state, so concurrent readers of
// an old view stay consistent.
func (r *Root) mergedState(parent *trace.Active) (*eard.DB, *accounting.Store, error) {
	msp := parent.Child(spanFedMerge, r.nowSec())
	gens, err := r.shardGenerations(msp)
	if err != nil {
		msp.Attr("cache", "error").End(r.nowSec())
		return nil, nil, err
	}
	r.cacheMu.Lock()
	if r.cacheOK && equalGens(r.cacheGens, gens) {
		db, acct := r.cacheDB, r.cacheAcct
		r.cacheMu.Unlock()
		r.countCache(true)
		msp.Attr("cache", "hit").End(r.nowSec())
		return db, acct, nil
	}
	r.cacheMu.Unlock()
	r.countCache(false)
	msp.Attr("cache", "miss")
	defer func() { msp.End(r.nowSec()) }()

	// Rebuild outside the cache lock: concurrent misses duplicate work
	// but never block a hit, and the last finisher wins the cache slot.
	// Dumps are decoded one shard after the other and folded in by value,
	// so every shard's decode reuses the first one's slice.
	db := eard.NewDB()
	var recs []eard.JobRecord
	err = r.fanOut(msp, wire.Query{Kind: wire.QueryRecords}, func(_ int, res wire.Result) error {
		if err := res.Decode(&recs); err != nil {
			return err
		}
		for _, rec := range recs {
			if err := db.Insert(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// The merged store shares the root's telemetry set, so the
	// goear_accounting_* families on a federation root cover the
	// serving tier the same way they cover a single daemon.
	acct := accounting.NewStore(r.ts)
	var acctRecs []accounting.Record
	err = r.fanOut(msp, wire.Query{Kind: wire.QueryAcctRecords}, func(_ int, res wire.Result) error {
		if err := res.Decode(&acctRecs); err != nil {
			return err
		}
		for _, rec := range acctRecs {
			if _, err := acct.Insert(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	r.cacheMu.Lock()
	r.cacheOK = true
	r.cacheGens = gens
	r.cacheDB = db
	r.cacheAcct = acct
	r.cacheMu.Unlock()
	return db, acct, nil
}

// countCache records one cache outcome in stats and telemetry,
// keeping the hit-ratio gauge current.
func (r *Root) countCache(hit bool) {
	r.mu.Lock()
	if hit {
		r.stats.CacheHits++
	} else {
		r.stats.CacheMisses++
	}
	ratio := float64(r.stats.CacheHits) / float64(r.stats.CacheHits+r.stats.CacheMisses)
	r.mu.Unlock()
	if hit {
		r.tel.cacheHit.Inc()
	} else {
		r.tel.cacheMiss.Inc()
	}
	r.tel.cacheHitR.Set(ratio)
}

// Generation reports the summed shard generations: a single counter
// that moves whenever any shard ingests, which is what the root
// answers to wire.QueryGeneration so a cache can stack above a root
// exactly as above a daemon.
func (r *Root) Generation() (uint64, error) {
	return r.generation(nil)
}

func (r *Root) generation(parent *trace.Active) (uint64, error) {
	gens, err := r.shardGenerations(parent)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, g := range gens {
		sum += g
	}
	return sum, nil
}

// AcctQuery serves one filtered, paginated job-accounting query over
// the merged federation view. Pages are byte-identical to what a
// single daemon holding the union of the shards would serve — the
// merged store's canonical order has no memory of which shard a
// record came from.
func (r *Root) AcctQuery(q accounting.Query) (accounting.Page, error) {
	return r.acctQuery(nil, q)
}

func (r *Root) acctQuery(parent *trace.Active, q accounting.Query) (accounting.Page, error) {
	_, acct, err := r.mergedState(parent)
	if err != nil {
		return accounting.Page{}, err
	}
	return acct.Query(q)
}

// AcctRecords dumps the merged accounting records in canonical order.
func (r *Root) AcctRecords() ([]accounting.Record, error) {
	return r.acctRecords(nil)
}

func (r *Root) acctRecords(parent *trace.Active) ([]accounting.Record, error) {
	_, acct, err := r.mergedState(parent)
	if err != nil {
		return nil, err
	}
	return acct.Snapshot(), nil
}
