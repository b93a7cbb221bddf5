package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a harness call into a layer.
// IDs start at 1; parent 0 marks a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trial   int    `json:"trial"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory; a nil tracer records nothing, so the
// untraced trials pay one nil check per call site.
type tracer struct {
	base  time.Time
	trial int // stamped on every span; the harness sets it per trial
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start opens a span under parent (0 = root) and returns its ID (0
// from a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trial: t.trial, Name: name, StartNS: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// selfTime is a span kind's total duration minus the time its direct
// children cover.
type selfTime struct {
	name   string
	count  int
	selfNS int64
}

// selfTimes aggregates self time per span name, largest first.
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	byName := map[string]*selfTime{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		// Children running in parallel can cover more than the parent's
		// own interval; self time is then zero, not negative.
		if self := s.EndNS - s.StartNS - covered[s.ID]; self > 0 {
			st.selfNS += self
		}
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].selfNS != out[j].selfNS {
			return out[i].selfNS > out[j].selfNS
		}
		return out[i].name < out[j].name
	})
	return out
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace close: %w", err)
	}
	return nil
}
