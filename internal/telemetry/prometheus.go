package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus encodes the registry in the Prometheus text
// exposition format (version 0.0.4): families in name order, series in
// label-value order, so the output is deterministic for a given set of
// instrument values. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var sb strings.Builder
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		series := append([]*series(nil), f.series...)
		f.mu.Unlock()
		sort.Slice(series, func(i, j int) bool {
			return lessStrings(series[i].values, series[j].values)
		})
		for _, s := range series {
			writeSeries(&sb, f, s)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func lessStrings(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func writeSeries(w *strings.Builder, f *family, s *series) {
	switch f.kind {
	case kindCounter:
		w.WriteString(f.name)
		writeLabels(w, f.labels, s.values, "", "")
		fmt.Fprintf(w, " %d\n", s.c.Value())
	case kindGauge:
		w.WriteString(f.name)
		writeLabels(w, f.labels, s.values, "", "")
		fmt.Fprintf(w, " %s\n", formatFloat(s.g.Value()))
	case kindHistogram:
		h := s.h
		cum := uint64(0)
		for i := range h.buckets {
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatFloat(h.bounds[i])
			}
			cum += h.buckets[i].Load()
			w.WriteString(f.name)
			w.WriteString("_bucket")
			writeLabels(w, f.labels, s.values, "le", le)
			fmt.Fprintf(w, " %d\n", cum)
		}
		w.WriteString(f.name)
		w.WriteString("_sum")
		writeLabels(w, f.labels, s.values, "", "")
		fmt.Fprintf(w, " %s\n", formatFloat(h.sum()))
		w.WriteString(f.name)
		w.WriteString("_count")
		writeLabels(w, f.labels, s.values, "", "")
		fmt.Fprintf(w, " %d\n", h.Count())
	}
}

// writeLabels writes the {k="v",...} block, appending the extra pair
// (used for histogram "le") when extraKey is non-empty. No block is
// written when there are no pairs at all.
func writeLabels(w *strings.Builder, names, values []string, extraKey, extraVal string) {
	if len(names) == 0 && extraKey == "" {
		return
	}
	w.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(n)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(values[i]))
		w.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(extraKey)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(extraVal))
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Sample is one parsed exposition line: a metric name, its raw label
// block (including braces, empty when unlabeled) and the value.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// ParseText parses Prometheus text exposition format into samples,
// preserving input order. It understands exactly what WritePrometheus
// emits (and the common subset of the format): comment lines are
// skipped, each sample line is `name[{labels}] value`.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("telemetry: malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: bad value in %q: %w", line, err)
		}
		key := strings.TrimSpace(line[:sp])
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
		}
		out = append(out, Sample{Name: name, Labels: labels, Value: v})
	}
	return out, sc.Err()
}
