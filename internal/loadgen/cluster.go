// Package loadgen drives synthetic EARDBD traffic at cluster scale:
// an in-process shard fleet with kill/restart fault injection, a
// generator that pushes tens of thousands of simulated node reporters
// through the real wire protocol (real clients, real batching, real
// spill journals), and a canonical federation snapshot for
// byte-identity checks. It is the load half of the federation test
// battery and the engine behind cmd/earload.
package loadgen

import (
	"fmt"
	"net"
	"sync"

	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
)

// Cluster is an in-process shard fleet: the daemon, N times. Each shard
// is an eardbd.Server over its own DB, reached through the server's own
// Dial, with node→shard placement by the fed.Fleet every other fleet
// uses. Kill closes a shard's server, which refuses new connections,
// severs the live ones and waits for their handlers, as a daemon's
// shutdown does; Restart brings up a fresh Server over what the closed
// one would have persisted — its DB and its Saved state — so clients
// exercise the spill/replay/dedup paths exactly as against a real
// restarted daemon.
type Cluster struct {
	cfg    eardbd.Config
	fleet  *fed.Fleet
	shards map[string]*clusterShard // fixed at construction
}

// clusterShard is one shard's server: the live one, or while the shard
// is down the closed one the next starts from. mu is held through a
// whole Kill, so a dial or a Restart arriving meanwhile waits and then
// sees the shard down with every handler gone.
type clusterShard struct {
	// errDown is what a dial gets while the shard is down: built once,
	// because a fleet reporting into a dead shard is refused a few
	// times per batch.
	errDown error

	mu   sync.Mutex
	srv  *eardbd.Server
	down bool
}

// NewCluster builds n shards named shard0..shard<n-1>, each with its
// own DB and server under the given config.
func NewCluster(n int, cfg eardbd.Config) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("loadgen: cluster needs at least one shard, got %d", n)
	}
	c := &Cluster{cfg: cfg, shards: map[string]*clusterShard{}}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard%d", i)
		c.shards[names[i]] = &clusterShard{
			errDown: fmt.Errorf("loadgen: shard %s is down", names[i]),
			srv:     eardbd.NewServer(eard.NewDB(), cfg),
		}
	}
	var err error
	c.fleet, err = fed.NewFleet(names, c.dialShard)
	return c, err
}

// Fleet returns the cluster as every other client of a fleet sees one:
// its shard names, their ring, and dialShard.
func (c *Cluster) Fleet() *fed.Fleet { return c.fleet }

// shard looks one shard up by name.
func (c *Cluster) shard(name string) (*clusterShard, error) {
	if sh := c.shards[name]; sh != nil {
		return sh, nil
	}
	return nil, fmt.Errorf("loadgen: unknown shard %s", name)
}

// Server returns a shard's current server (nil for unknown names).
// After a Restart this is the new instance.
func (c *Cluster) Server(name string) *eardbd.Server {
	sh, err := c.shard(name)
	if err != nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.srv
}

// dialShard opens a connection to one shard, or fails if the shard is
// down.
func (c *Cluster) dialShard(name string) (net.Conn, error) {
	sh, err := c.shard(name)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	srv, down := sh.srv, sh.down
	sh.mu.Unlock()
	if down {
		return nil, sh.errDown
	}
	return srv.Dial()
}

// DialFor returns a dial function routing one node to its ring owner.
func (c *Cluster) DialFor(node string) func() (net.Conn, error) { return c.fleet.DialFor(node) }

// Kill takes a shard down: new dials fail, live connections are
// severed and their handlers drained (the shard's state survives in the
// closed server, as a daemon's would on disk). In-flight batches may have been stored without their ack reaching
// the client; the client's retry is absorbed by the server's
// record-level dedup after Restart.
func (c *Cluster) Kill(name string) error {
	sh, err := c.shard(name)
	if err != nil {
		return err
	}
	wasUp, err := sh.stop()
	if !wasUp {
		return fmt.Errorf("loadgen: shard %s already down", name)
	}
	return err
}

// stop closes the shard's server, unless the shard is down already,
// which it reports.
func (sh *clusterShard) stop() (wasUp bool, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.down {
		return false, nil
	}
	sh.down = true
	return true, sh.srv.Close()
}

// Restart brings a killed shard back with a fresh server over the
// closed one's DB and Saved state. The new server's batch-ID window
// starts empty, so redelivered batches are deduplicated
// record-by-record against the DB.
func (c *Cluster) Restart(name string) error {
	sh, err := c.shard(name)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.down {
		return fmt.Errorf("loadgen: shard %s is not down", name)
	}
	srv := eardbd.NewServer(sh.srv.DB(), c.cfg)
	if err := srv.Restore(sh.srv.Saved()); err != nil {
		return err
	}
	sh.srv, sh.down = srv, false
	return nil
}

// Root builds a federation root over the cluster's shards, sharing
// the shards' frame-payload cap so large whole views survive the
// merge queries, and the shards' trace buffer so a root query and the
// shard queries it fans out render as one connected tree.
func (c *Cluster) Root() (*fed.Root, error) {
	return fed.NewRoot(fed.Config{
		Fleet:           c.fleet,
		MaxFramePayload: c.cfg.MaxFramePayload, Telemetry: c.cfg.Telemetry, Trace: c.cfg.Trace,
	})
}

// Close shuts every live shard down.
func (c *Cluster) Close() error {
	var firstErr error
	for _, name := range c.fleet.Names() {
		if _, err := c.shards[name].stop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
