package loadgen

import (
	"encoding/json"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/wire"
)

// snapshot is the canonical federation state dump: the aggregate, the
// merged per-node power view, every job summary and every per-job
// accounting record, in the fixed field and element order the
// byte-identity tests compare.
type snapshot struct {
	Aggregate  eardbd.Aggregate    `json:"aggregate"`
	NodePowers []wire.NodePower    `json:"node_powers"`
	Jobs       []eard.JobSummary   `json:"jobs"`
	Acct       []accounting.Record `json:"acct"`
}

// Snapshot renders the root's merged state as canonical JSON. Two
// runs over the same record set produce byte-identical snapshots
// whatever the shard count or fault history, which is the federation
// tier's core correctness contract.
func Snapshot(root *fed.Root) ([]byte, error) {
	v, err := root.View(nil)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(snapshot{Aggregate: v.Aggregate(), NodePowers: v.Powers, Jobs: v.DB.Summaries(), Acct: v.Acct.Snapshot()}, "", "  ")
}
