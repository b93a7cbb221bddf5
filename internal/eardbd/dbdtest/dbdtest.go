// Package dbdtest is the shared harness behind the EARDBD closed-loop
// test battery. It renders the canonical transcript — aggregate, node
// powers, job summaries, the eargm cap trace and manager stats — from
// any snapshot view of the reporting tier, so the same byte-golden
// covers a single daemon and a federation root over any shard count.
//
// It is a non-test package on purpose: the closed-loop test has to
// import the federation root, and fed imports eardbd, so the test
// lives in the external package eardbd_test and shares its helpers
// from here.
package dbdtest

import (
	"encoding/json"
	"fmt"
	"strings"

	"goear/internal/eardbd"
	"goear/internal/eargm"
)

// CanonicalNode names node i as the closed-loop battery always has.
func CanonicalNode(i int) string { return fmt.Sprintf("n%02d", i) }

// View is the snapshot surface a transcript renders — the production
// query backend, which a daemon and a federation root both are — plus
// the eargm.PowerSource the cap ratchet polls.
type View interface {
	eardbd.Backend
	eargm.PowerSource
}

// Transcript runs the eargm budget ratchet off the view's power feed
// and renders everything observable: aggregate, node powers, job
// summaries, cap trace and manager stats as JSON lines, then the
// order-independent ingest counters. The byte format is the
// closed-loop golden and must not change lightly.
func Transcript(v View, nodes int) (string, error) {
	m, err := eargm.New(eargm.Config{BudgetW: 260 * float64(nodes), MaxCapPstate: 8})
	if err != nil {
		return "", err
	}
	caps, err := eargm.Drive(m, v, 0, 12)
	if err != nil {
		return "", err
	}

	view, err := v.View(nil)
	if err != nil {
		return "", err
	}
	agg, sums := view.Aggregate(), view.DB.Summaries()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, item := range []any{agg, v.NodePowers(), sums, caps, m.Stats()} {
		if err := enc.Encode(item); err != nil {
			return "", err
		}
	}
	st, err := v.IngestStats(nil)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "batches=%d accepted=%d dup=%d replaced=%d rejected=%d proto=%d\n",
		st.Batches, st.RecordsAccepted, st.RecordsDuplicate, st.RecordsReplaced,
		st.BatchesRejected, st.ProtocolErrors)
	return b.String(), nil
}

// TrimStats drops the transcript's trailing ingest-counter line. A
// faulted run redelivers batches, which shifts the accepted/duplicate
// split without changing any state the snapshot lines render — so
// fault tests compare transcripts through this.
func TrimStats(transcript string) string {
	i := strings.LastIndex(strings.TrimRight(transcript, "\n"), "\n")
	if i < 0 {
		return transcript
	}
	return transcript[:i+1]
}
