package fed

import (
	"slices"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Root-side view caching. Every state query (aggregate, node powers,
// job summaries, the accounting tier) reduces to one folded view of
// what the shards hold. Rebuilding that view per query is fine at
// eargm snapshot rate and wrong for a dashboard tier taking repeated
// reads, so the root keys the folded view by the vector of shard
// ingest generations: a query polls the cheap generation counter on
// every shard, and only a moved generation pays for the dumps and a
// re-fold. The rebuilt view runs the exact same insertion arithmetic
// as an uncached fold, so caching is invisible to the byte-identity
// contract — it only changes how often the fold runs.

// view is one folded reading of the fleet, keyed by the shard
// generations it was polled at and the root's failure epoch then. A
// shard counts its generations from where its saved state left off, but
// one that comes back without its state counts from zero again, and
// could reach a generation the root has cached with other contents; it
// cannot come back without a failed leg or a redial in between, which
// moves the epoch. A published view is immutable, the power list
// included: invalidation swaps in a freshly built one, so readers of an
// old view stay consistent and every query served from one view sees
// one generation vector.
type view struct {
	gens  []wire.Generation
	epoch uint64
	eardbd.View
}

// shardGenerations polls every shard's ingest generation counter.
func (r *Root) shardGenerations(parent *trace.Active) ([]wire.Generation, error) {
	gens := make([]wire.Generation, len(r.cfg.Fleet.names))
	err := r.fanOut(parent, wire.Query{Kind: wire.QueryGeneration}, func(i int, res wire.Result) error {
		return res.Decode(&gens[i])
	})
	if err != nil {
		return nil, err
	}
	return gens, nil
}

// View implements eardbd.Backend with the folded cluster view — from
// cache when no shard generation has moved, rebuilt otherwise. A node
// reports through exactly one shard (ring placement), so the union of
// the shards' power lists is disjoint; a node seen on two shards
// (mid-rebalance traffic) keeps the value from the later shard in
// fan-out order.
func (r *Root) View(parent *trace.Active) (eardbd.View, error) {
	msp := parent.Child(spanFedMerge, r.Now.Sec())
	gens, err := r.shardGenerations(msp)
	if err != nil {
		msp.Attr("cache", "error").End(r.Now.Sec())
		return eardbd.View{}, err
	}
	// Loaded after the poll: a redial during it is in the epoch.
	epoch := r.epoch.Load()
	if v := r.cache.Load(); v != nil && v.epoch == epoch && slices.Equal(v.gens, gens) {
		r.countCache(true)
		msp.Attr("cache", "hit").End(r.Now.Sec())
		return v.View, nil
	}
	r.countCache(false)
	msp.Attr("cache", "miss")
	defer func() { msp.End(r.Now.Sec()) }()

	// Concurrent misses duplicate work but never block a hit, and the
	// last finisher wins the cache slot. Every dump is folded straight
	// from its frame, a record at a time, one shard after the other; a
	// dump that turns out malformed part-way leaves records behind in a
	// view that is dropped here, never published.
	v := &view{gens: gens, epoch: epoch}
	v.DB = eard.NewDB()
	err = r.fanOut(msp, wire.Query{Kind: wire.QueryRecords}, func(_ int, res wire.Result) error {
		return res.EachRecord(v.DB.Insert)
	})
	if err != nil {
		return eardbd.View{}, err
	}
	// The merged store shares the root's telemetry set, so the
	// goear_accounting_* families on a federation root cover the
	// serving tier the same way they cover a single daemon.
	v.Acct = accounting.NewStore(r.ts)
	err = r.fanOut(msp, wire.Query{Kind: wire.QueryAcctRecords}, func(_ int, res wire.Result) error {
		return res.EachAcctRecord(func(rec accounting.Record) error {
			_, err := v.Acct.Insert(rec)
			return err
		})
	})
	if err != nil {
		return eardbd.View{}, err
	}
	byNode := map[string]float64{}
	var nps []wire.NodePower // every shard's list decodes into the first one's
	err = r.fanOut(msp, wire.Query{Kind: wire.QueryNodePowers}, func(_ int, res wire.Result) error {
		if err := res.Decode(&nps); err != nil {
			return err
		}
		for _, np := range nps {
			byNode[np.Node] = np.PowerW
		}
		return nil
	})
	if err != nil {
		return eardbd.View{}, err
	}
	v.Powers = eardbd.SortedPowers(byNode)
	r.cache.Store(v)
	return v.View, nil
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

// Generation implements eardbd.Backend with the summed shard
// generations: a single counter that moves whenever any shard ingests,
// which is what the root answers to wire.QueryGeneration so a cache
// can stack above a root exactly as above a daemon.
func (r *Root) Generation(parent *trace.Active) (uint64, error) {
	gens, err := r.shardGenerations(parent)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, g := range gens {
		sum += g.Gen
	}
	return sum, nil
}
