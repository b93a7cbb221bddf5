package fed

import (
	"goear/internal/eardbd"
	"goear/internal/wire"
)

// The root speaks the same wire protocol as a shard daemon — its
// embedded eardbd.Front is the daemon's — so earctl dbd and eargm
// feeds point at either interchangeably. Only batches differ.

// refuseBatch turns a batch frame away and hangs up: reports go to the
// shard that owns the node (ring placement), never through the root —
// the root is a read path, and keeping it so means a root outage can
// never lose accounting data.
func (r *Root) refuseBatch(c *wire.Conn, _ wire.Frame, _ *wire.Batch) bool {
	r.ReplyError(c, "federation root does not accept batches; report to the owning shard")
	return false
}

// count folds the front end's events into the root's counters; only
// served queries have one.
func (r *Root) count(ev eardbd.Event) {
	if ev != eardbd.EventQuery {
		return
	}
	r.mu.Lock()
	r.stats.Queries++
	r.mu.Unlock()
	r.tel.queries.Inc()
}
