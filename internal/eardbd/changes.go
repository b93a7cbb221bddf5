package eardbd

import (
	"fmt"
	"slices"

	"goear/internal/wire"
)

// What moved since a generation. A shard has no change log: it stamps
// every node of a batch that moved anything with the generation the
// batch bumped to, and answers a changes query with every node stamped
// after the generation asked from, whole — its node reports, its
// accounting records and its power, read from the live stores. A root
// whose cached view holds exactly the shard's nodes as they were at
// that generation takes them in and holds them as they are now. Records
// are never removed one at a time, so re-sending a node whole carries
// every change to it; an accounting eviction or a Restore does remove
// records, and a changes query from a generation before the last one is
// refused. A query from zero has no base to have lost: Answer serves it
// from the whole view, stamped or not, as every backend does.

// nodeState is what the server keeps of one node: its last reported
// power, once it has reported one, and the generation at which its node
// reports, accounting records or power last moved.
type nodeState struct {
	power    float64
	reported bool
	moved    uint64
}

// stamp marks every node of a batch that moved anything with the
// generation it bumped. The caller holds mu.
func (s *Server) stamp(b *wire.Batch) {
	last := ""
	mark := func(node string) {
		if node != last {
			st := s.nodeW[node]
			st.moved = s.gen.Gen
			s.nodeW[node] = st
			last = node
		}
	}
	for i := range b.Records {
		mark(b.Records[i].Node)
	}
	for i := range b.Acct {
		mark(b.Acct[i].Node)
	}
}

// sortedPowers lists the reported powers by node name. The caller holds
// mu.
func (s *Server) sortedPowers() []wire.NodePower {
	names := make([]string, 0, len(s.nodeW))
	for n, st := range s.nodeW {
		if st.reported {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	out := make([]wire.NodePower, len(names))
	for i, n := range names {
		out[i] = wire.NodePower{Node: n, PowerW: s.nodeW[n].power}
	}
	return out
}

// appendChanges answers a changes query (wire.QueryChanges) from a
// generation since > 0 into dst with c's string table: every node
// stamped after since, or a refusal when records were dropped after it. The answer is gathered in scratch
// the server keeps, and built where the connection builds every reply,
// so a warm answer allocates nothing while the stores' group orders
// stand; scratch that held more than a kept reply does is let go with it.
func (s *Server) appendChanges(c *wire.Conn, dst []byte, since uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped > since {
		return dst, fmt.Errorf("eardbd: no changes since generation %d: records were dropped at %d", since, s.dropped)
	}
	nodes := s.changedNodes[:0]
	for n, st := range s.nodeW {
		if st.moved > since {
			nodes = append(nodes, n)
		}
	}
	slices.Sort(nodes)
	ch := &s.changed
	ch.Powers = ch.Powers[:0]
	for _, n := range nodes {
		if st := s.nodeW[n]; st.reported {
			ch.Powers = append(ch.Powers, wire.NodePower{Node: n, PowerW: st.power})
		}
	}
	ch.Records = s.db.AppendNodes(ch.Records[:0], nodes)
	ch.Acct = s.acct.AppendNodes(ch.Acct[:0], nodes)
	out := c.AppendChanges(dst, ch)
	if cap(out) > wire.MaxKept {
		s.changed, s.changedNodes = wire.Changes{}, nil
		return out, nil
	}
	// Cleared, so the scratch keeps no strings of records since replaced.
	clear(nodes)
	clear(ch.Records)
	clear(ch.Acct)
	clear(ch.Powers)
	s.changedNodes = nodes
	return out, nil
}
