// Package accounting implements EAR's per-job energy attribution: the
// "what did my job cost" half of the accounting pillar. Node-level
// measurements (RAPL PKG/DRAM, the uncore share of PKG, and the DC
// node meter) are ratio-split across the jobs resident on the node by
// their usage counters — the Kepler model of power attribution — into
// per-job, per-phase records that persist through the EARDBD tier and
// serve a read-optimised multi-tenant query API.
//
// The package is deliberately low in the dependency tree (stdlib plus
// telemetry) so the wire codec, the daemons and the simulator can all
// speak Record without cycles.
package accounting

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// CodecVersion is the job-record codec version. NewRecord stamps it;
// Validate refuses any other value, so a fixture hand-rolling records
// (or a peer speaking an older layout) fails loudly at the boundary
// instead of silently storing skewed rows.
const CodecVersion = 1

// Meta identifies the job a record attributes energy to.
type Meta struct {
	// JobID and StepID key the job the way eard.JobRecord does.
	JobID  string
	StepID string
	// User owns the job; the multi-tenant query tier filters on it.
	User string
	// Policy is the energy policy the job ran under (optional).
	Policy string
}

// Window is the node-time slice a record covers: one phase of one
// node's execution.
type Window struct {
	Node     string
	Phase    int
	StartSec float64
	EndSec   float64
}

// Energy is a per-domain joule breakdown. UncoreJ is the uncore share
// of PkgJ (RAPL PCK scope includes it); NodeJ is the DC node meter
// scope, the superset.
type Energy struct {
	PkgJ    float64
	DramJ   float64
	UncoreJ float64
	NodeJ   float64
}

// Rates carries the averaged operating frequencies over the window.
type Rates struct {
	AvgCPUGHz float64
	AvgIMCGHz float64
}

// Record is one job's attributed energy over one phase window on one
// node: the unit the accounting tier stores, ships and serves.
// Construct records with NewRecord — the codec version and validation
// live there, and Validate refuses a record without one at both client
// and server.
type Record struct {
	V         int     `json:"v"`
	JobID     string  `json:"job_id"`
	StepID    string  `json:"step_id"`
	User      string  `json:"user"`
	Node      string  `json:"node"`
	Policy    string  `json:"policy,omitempty"`
	Phase     int     `json:"phase"`
	StartSec  float64 `json:"start_sec"`
	EndSec    float64 `json:"end_sec"`
	PkgJ      float64 `json:"pkg_j"`
	DramJ     float64 `json:"dram_j"`
	UncoreJ   float64 `json:"uncore_j"`
	NodeJ     float64 `json:"node_j"`
	AvgCPUGHz float64 `json:"avg_cpu_ghz"`
	AvgIMCGHz float64 `json:"avg_imc_ghz"`
}

// NewRecord builds a versioned record from its parts and validates it.
func NewRecord(m Meta, w Window, e Energy, r Rates) (Record, error) {
	rec := newRecord(m, w, e, r)
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// newRecord builds a versioned record from its parts.
func newRecord(m Meta, w Window, e Energy, r Rates) Record {
	return Record{
		V:         CodecVersion,
		JobID:     m.JobID,
		StepID:    m.StepID,
		User:      m.User,
		Node:      w.Node,
		Policy:    m.Policy,
		Phase:     w.Phase,
		StartSec:  w.StartSec,
		EndSec:    w.EndSec,
		PkgJ:      e.PkgJ,
		DramJ:     e.DramJ,
		UncoreJ:   e.UncoreJ,
		NodeJ:     e.NodeJ,
		AvgCPUGHz: r.AvgCPUGHz,
		AvgIMCGHz: r.AvgIMCGHz,
	}
}

// Validate reports whether the record is well-formed at the current
// codec version.
func (r Record) Validate() error {
	switch {
	case r.V != CodecVersion:
		return fmt.Errorf("accounting: record codec version %d, this side speaks %d", r.V, CodecVersion)
	case r.JobID == "":
		return fmt.Errorf("accounting: record has no job id")
	case r.StepID == "":
		return fmt.Errorf("accounting: record %s has no step id", r.JobID)
	case r.User == "":
		return fmt.Errorf("accounting: record %s/%s has no user", r.JobID, r.StepID)
	case r.Node == "":
		return fmt.Errorf("accounting: record %s/%s has no node", r.JobID, r.StepID)
	case r.Phase < 0:
		return fmt.Errorf("accounting: record %s/%s has negative phase %d", r.JobID, r.StepID, r.Phase)
	case r.EndSec < r.StartSec:
		return fmt.Errorf("accounting: record %s/%s window ends (%g) before it starts (%g)", r.JobID, r.StepID, r.EndSec, r.StartSec)
	case strings.Contains(r.JobID, cursorSep) || strings.Contains(r.StepID, cursorSep) || strings.Contains(r.Node, cursorSep):
		return fmt.Errorf("accounting: record %q/%q on %q carries the cursor separator", r.JobID, r.StepID, r.Node)
	}
	for _, v := range []float64{r.StartSec, r.EndSec, r.PkgJ, r.DramJ, r.UncoreJ, r.NodeJ, r.AvgCPUGHz, r.AvgIMCGHz} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("accounting: record %s/%s carries a non-finite value", r.JobID, r.StepID)
		}
	}
	if r.PkgJ < 0 || r.DramJ < 0 || r.UncoreJ < 0 || r.NodeJ < 0 {
		return fmt.Errorf("accounting: record %s/%s carries negative energy", r.JobID, r.StepID)
	}
	return nil
}

// Key is a record's identity: the store holds at most one record per
// (job, step, node, phase), and the canonical sort order — the order
// snapshots, merges and pages all share — is the Key order.
type Key struct {
	JobID  string
	StepID string
	Node   string
	Phase  int
}

// key returns the record's identity.
func (r Record) key() Key {
	return Key{JobID: r.JobID, StepID: r.StepID, Node: r.Node, Phase: r.Phase}
}

// less orders keys canonically: (job, step, node, phase).
func (k Key) less(o Key) bool {
	if k.JobID != o.JobID {
		return k.JobID < o.JobID
	}
	if k.StepID != o.StepID {
		return k.StepID < o.StepID
	}
	if k.Node != o.Node {
		return k.Node < o.Node
	}
	return k.Phase < o.Phase
}

// cursorSep separates cursor fields before encoding. Validate refuses
// it in every key field a cursor carries, so a cursor splits back into
// exactly the four fields it was joined from.
const cursorSep = "\x1f"

// cursorRoom is the stack room a cursor's fields are joined or parsed
// in, before and after base64: a fleet's keys fit with room to spare,
// and a longer key costs one buffer more, not a different result.
const cursorRoom = 96

// AppendCursor appends the pagination cursor naming k to dst and
// returns the extended slice. Cursors are opaque to clients and stable
// across daemons: the same key encodes identically everywhere, which is
// what lets a page walk hop between a shard daemon and a federation
// root mid-flight. The fields are joined on the stack, so a cursor
// appended to a kept buffer — a page's frame — allocates nothing.
func AppendCursor(dst []byte, k Key) []byte {
	var raw [cursorRoom]byte
	b := append(raw[:0], k.JobID...)
	b = append(append(b, cursorSep...), k.StepID...)
	b = append(append(b, cursorSep...), k.Node...)
	b = strconv.AppendInt(append(b, cursorSep...), int64(k.Phase), 10)
	return base64.RawURLEncoding.AppendEncode(dst, b)
}

// EncodeCursor is AppendCursor's cursor as a string, the one
// allocation: what a page copied out carries in Next.
func EncodeCursor(k Key) string {
	var enc [cursorRoom * 4 / 3]byte
	return string(AppendCursor(enc[:0], k))
}

// cursor is a parsed cursor: the fields of the key it names, its
// strings as bytes of the buffer it was parsed into.
type cursor struct {
	job, step, node []byte
	phase           int
}

// parseCursor parses s into the key it names, decoding it into buf's
// backing array — a caller's stack, for a fleet's keys — and cutting
// the key's strings from there.
func parseCursor(buf []byte, s string) (cursor, error) {
	var src [cursorRoom * 4 / 3]byte
	dec, err := base64.RawURLEncoding.AppendDecode(buf[:0], append(src[:0], s...))
	if err != nil {
		return cursor{}, fmt.Errorf("accounting: bad cursor: %w", err)
	}
	if n := bytes.Count(dec, []byte(cursorSep)) + 1; n != 4 {
		return cursor{}, fmt.Errorf("accounting: bad cursor: %d fields", n)
	}
	var c cursor
	c.job, dec, _ = bytes.Cut(dec, []byte(cursorSep))
	c.step, dec, _ = bytes.Cut(dec, []byte(cursorSep))
	c.node, dec, _ = bytes.Cut(dec, []byte(cursorSep))
	if c.phase, err = strconv.Atoi(string(dec)); err != nil {
		return cursor{}, fmt.Errorf("accounting: bad cursor phase: %w", err)
	}
	return c, nil
}

// before reports whether the cursor's key orders before r's, as
// Key.less does: whether a page resumed from the cursor may hold r.
func (c *cursor) before(r *Record) bool {
	if string(c.job) != r.JobID {
		return string(c.job) < r.JobID
	}
	if string(c.step) != r.StepID {
		return string(c.step) < r.StepID
	}
	if string(c.node) != r.Node {
		return string(c.node) < r.Node
	}
	return c.phase < r.Phase
}
