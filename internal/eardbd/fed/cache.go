package fed

import (
	"errors"
	"slices"
	"strings"

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
// every shard, and only a moved generation pays — for what moved, not
// for the fleet. Every miss builds the parts whose stamps moved one way,
// by applying the shards' changes (wire.QueryChanges): the moved
// shards' changes since the cached view's generation, written into
// copy-on-write clones, or — when there is no cached view, or it cannot
// take that path — every shard's changes since zero, its whole view,
// written into fresh stores. Both run the exact same insertion
// arithmetic as an uncached fold, so caching is invisible to the
// byte-identity contract — it only changes how often, and over how
// much, each fold runs.

// view is one folded reading of the fleet, keyed by the shard
// generations it was polled at and the root's failure epoch then. A
// shard counts its generations from where its saved state left off, but
// one that comes back without its state counts from zero again, and
// could reach a generation the root has cached with other contents; it
// cannot come back without a failed leg or a redial in between, which
// moves the epoch. A published view is immutable, its stores and power
// list included: invalidation swaps in a freshly built one — whose
// clones share storage with this one but never write it — so readers
// of an old view stay consistent, every query served from one view sees
// one generation vector, and two views may share a part.
//
// dirty holds the parts whose last rebuild from zero met a node on a
// shard the ring does not place it on. Changes since a generation are
// applied only to a view with none: a node seen on two shards keeps the
// later shard's values in a rebuild from zero, which changes read from
// one shard cannot reproduce.
type view struct {
	gens  []wire.Generation
	epoch uint64
	dirty parts
	eardbd.View
}

// parts is a set of the three stores a view folds, bit i standing for
// partNames[i].
type parts uint8

const (
	partRecords parts = 1 << iota
	partAcct
	partPowers
	allParts = partRecords | partAcct | partPowers
)

// partNames are the parts' labels on goear_eardbd_fed_refolds_total and
// in the fed.merge span's refold attribute.
var partNames = [...]string{"records", "acct", "powers"}

// movedParts returns the parts whose stamp differs on some shard between
// two polls of the same fleet.
func movedParts(old, cur []wire.Generation) parts {
	var p parts
	for i := range cur {
		if old[i].Records != cur[i].Records {
			p |= partRecords
		}
		if old[i].Acct != cur[i].Acct {
			p |= partAcct
		}
		if old[i].Powers != cur[i].Powers {
			p |= partPowers
		}
	}
	return p
}

// String lists the set's part names, comma-separated.
func (p parts) String() string {
	var names []string
	for i, name := range partNames {
		if p&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, ",")
}

// rebuild is how a miss rebuilt the parts that moved: from the moved
// shards' changes since the cached view (delta), or from every shard's
// changes since zero (full) and why.
type rebuild uint8

const (
	byDelta    rebuild = iota
	byCold             // there was no cached view
	byEpoch            // a shard may have restarted since the cached view
	byNotOwner         // a node came from a shard the ring does not place it on
	byRefused          // a shard could not say what changed since the cached view
)

// rebuildNames are the fed.merge span's names of each way, the mode
// and, for a full fold, the reason after a colon.
var rebuildNames = [...]string{"delta", "full:cold", "full:epoch", "full:not_owner", "full:refused"}

// errNotOwner stops applying changes at a node its shard does not own.
var errNotOwner = errors.New("node not owned by the shard that sent it")

// pollGenerations polls every shard's generation, one entry a shard in
// fleet order, into buf when the fleet fits it. Decoded by value, a poll
// into an array on the caller's stack stays there: a hit keeps nothing,
// and a miss copies the vector it keys the view by.
func (r *Root) pollGenerations(parent *trace.Active, buf *[fanOutConcurrency]wire.Generation) ([]wire.Generation, error) {
	gens := buf[:]
	if n := len(r.cfg.Fleet.names); n > len(gens) {
		gens = make([]wire.Generation, n)
	}
	gens = gens[:len(r.cfg.Fleet.names)]
	err := r.fanOut(parent, wire.Query{Kind: wire.QueryGeneration}, func(i int, res wire.Result) (err error) {
		gens[i], err = res.Generation()
		return err
	})
	return gens, err
}

// View implements eardbd.Backend with the folded cluster view — from
// cache when no shard generation has moved, otherwise rebuilt from the
// cached one: the parts whose stamps moved on some shard take in what
// the moved shards report changed since the cached view, or are built
// again from every shard's whole view when the view or a shard rules
// that out; a changed epoch rebuilds all three. A node reports through
// exactly one shard (ring placement), so the union of the shards' power
// lists is disjoint; a node seen on two shards (mid-rebalance traffic)
// keeps the value from the later shard in fan-out order.
//
// A part kept from the cached view is exact for its unchanged stamps: a
// shard stamps a part only after the store under it took the batch, so
// a part built before the stamp moved holds at least what the stamp
// covers — and one that holds more is built again at the next poll,
// which sees the stamp moved. Changes are as exact: a shard stamps a
// node only after its stores took the batch, and re-sends it whole at
// every later ask from before the stamp.
func (r *Root) View(parent *trace.Active) (eardbd.View, error) {
	msp := parent.Child(spanFedMerge, r.Now.Sec())
	var buf [fanOutConcurrency]wire.Generation
	gens, err := r.pollGenerations(msp, &buf)
	if err != nil {
		msp.Attr("cache", "error").End(r.Now.Sec())
		return eardbd.View{}, err
	}
	// Loaded after the poll: a redial during it is in the epoch.
	epoch := r.epoch.Load()
	old := r.cache.Load()
	if old != nil && old.epoch == epoch && slices.Equal(old.gens, gens) {
		r.countCache(true)
		msp.Attr("cache", "hit").End(r.Now.Sec())
		return old.View, nil
	}
	moved, how := allParts, byCold
	switch {
	case old == nil:
	case old.epoch != epoch:
		how = byEpoch
	case old.dirty != 0:
		moved, how = movedParts(old.gens, gens), byNotOwner
	default:
		moved, how = movedParts(old.gens, gens), byDelta
	}
	r.countCache(false)
	msp.Attr("cache", "miss")
	defer func() { msp.End(r.Now.Sec()) }()

	// Concurrent misses duplicate work but never block a hit, and the
	// last finisher wins the cache slot. Every reply is folded straight
	// from its frame, a record at a time, one shard after the other; a
	// reply that turns out malformed part-way leaves records behind in a
	// view that is dropped here, never published.
	v := &view{gens: slices.Clone(gens), epoch: epoch}
	if old != nil {
		v.View, v.dirty = old.View, old.dirty // the parts not rebuilt are shared
	}
	if how == byDelta {
		if how, err = r.applyChanges(msp, v, old.gens, moved); err != nil {
			return eardbd.View{}, err
		}
	}
	if how != byDelta {
		if _, err := r.applyChanges(msp, v, nil, moved); err != nil {
			return eardbd.View{}, err
		}
	}
	r.tel.refold(moved, how == byDelta)
	if msp != nil {
		msp.Attr("refold", rebuildNames[how]+" "+moved.String())
	}
	r.cache.Store(v)
	return v.View, nil
}

// applyChanges takes the shards' changes (wire.QueryChanges) into v's
// moved parts and returns byDelta once v holds the result.
//
// From the generations in since, it asks only the shards whose
// generation moved, and writes clones of v's parts, which share storage
// with the cached view until written. A shard that refuses — records
// dropped, a restored state, a root that keeps no stamps — or names a
// node it does not own leaves v as it was, and applyChanges returns
// why, for the caller to rebuild from zero.
//
// From zero (since nil), it asks every shard for its whole view, writes
// fresh stores, and marks dirty the parts that met a node on a shard
// the ring does not place it on. A refusal then fails the view: a shard
// that cannot answer from zero — a build from before the kind — cannot
// serve a root (receive counts that leg failed).
func (r *Root) applyChanges(parent *trace.Active, v *view, since []wire.Generation, moved parts) (rebuild, error) {
	var (
		db     = v.DB
		acct   = v.Acct
		powers = v.Powers
		dirty  = v.dirty &^ moved
		owner  string // the shard whose changes are being applied
	)
	fromZero := since == nil
	switch {
	case fromZero:
		if moved&partRecords != 0 {
			db = eard.NewDB()
		}
		if moved&partAcct != 0 {
			// The merged store shares the root's telemetry set, so the
			// goear_accounting_* families on a federation root cover the
			// serving tier the same way they cover a single daemon.
			acct = accounting.NewStore(r.cfg.Telemetry)
		}
		if moved&partPowers != 0 {
			powers = []wire.NodePower{}
		}
	default:
		if moved&partRecords != 0 {
			db = db.Clone()
		}
		if moved&partAcct != 0 {
			acct = acct.Clone()
		}
		if moved&partPowers != 0 {
			powers = slices.Clone(powers)
		}
	}
	// take reports whether an element of node goes into part p: p is
	// being rebuilt, and node is the owner's or, from zero, marks p dirty.
	take := func(node string, p parts) (bool, error) {
		if r.cfg.Fleet.Owner(node) != owner {
			if !fromZero {
				return false, errNotOwner
			}
			dirty |= p & moved
		}
		return moved&p != 0, nil
	}
	ask := func(i int) (wire.Query, bool) {
		if fromZero {
			return wire.Query{Kind: wire.QueryChanges}, true
		}
		return wire.Query{Kind: wire.QueryChanges, Limit: int(since[i].Gen)}, since[i] != v.gens[i]
	}
	err := r.fanOutTo(parent, ask, func(i int, res wire.Result) error {
		owner = r.cfg.Fleet.names[i]
		return res.EachChange(func(rec eard.JobRecord) error {
			if ok, err := take(rec.Node, partRecords); !ok {
				return err
			}
			return db.Insert(rec)
		}, func(rec accounting.Record) error {
			if ok, err := take(rec.Node, partAcct); !ok {
				return err
			}
			_, err := acct.Insert(rec)
			return err
		}, func(np wire.NodePower) error {
			if ok, err := take(np.Node, partPowers); !ok {
				return err
			}
			at, found := slices.BinarySearchFunc(powers, np.Node, func(p wire.NodePower, node string) int {
				return strings.Compare(p.Node, node)
			})
			if found {
				powers[at].PowerW = np.PowerW
			} else {
				powers = slices.Insert(powers, at, np)
			}
			return nil
		})
	})
	switch {
	case err != nil && fromZero:
		return byDelta, err
	case errors.Is(err, errNotOwner):
		return byNotOwner, nil
	case errors.Is(err, eardbd.ErrServer):
		return byRefused, nil
	case err != nil:
		return byDelta, err
	}
	v.DB, v.Acct, v.Powers, v.dirty = db, acct, powers, dirty
	return byDelta, nil
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

// Generation implements eardbd.Backend the way a shard daemon does, so
// a cache stacks above a root exactly as above a daemon: the root keeps
// a counter of its own and bumps it whenever a poll's epoch or shard
// vector differs from the one it last answered for, stamping the parts
// whose column moved — all three across an epoch. A sum of the shard
// counters would not do: it can come round again with other contents.
func (r *Root) Generation(parent *trace.Active) (wire.Generation, error) {
	var buf [fanOutConcurrency]wire.Generation
	gens, err := r.pollGenerations(parent, &buf)
	if err != nil {
		return wire.Generation{}, err
	}
	epoch := r.epoch.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.answered != nil && r.answeredEpoch == epoch && slices.Equal(r.answered, gens) {
		return r.gen, nil
	}
	moved := allParts
	if r.answered != nil && r.answeredEpoch == epoch {
		moved = movedParts(r.answered, gens)
	}
	r.gen = r.gen.Bump(moved&partRecords != 0, moved&partAcct != 0, moved&partPowers != 0)
	r.answered, r.answeredEpoch = append(r.answered[:0], gens...), epoch
	return r.gen, nil
}
