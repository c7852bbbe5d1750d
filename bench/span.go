package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program is instrumented). Start and End
// are offsets from the tracer's epoch; Parent is the ID of the span that
// caused this one, -1 for a workload root.
type span struct {
	ID, Parent int
	Name       string
	Workload   string
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so code shared between the traced and untraced passes can
// call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	wl := name
	if parent >= 0 {
		wl = t.spans[parent].Workload
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: wl, Start: time.Since(t.epoch), End: -1})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.epoch)
	return t.spans[id].dur()
}

// selfRow is one line of the self-time table: all spans of one name.
type selfRow struct {
	Name        string
	Workload    string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates spans by (workload, name). A span's self time is
// its duration minus the part of its interval its children cover — the
// union of the children, so overlapping children are not subtracted
// twice.
func selfTimes(spans []span) []selfRow {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type key struct{ wl, name string }
	rows := make(map[key]*selfRow)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed: the run aborted inside it
		}
		k := key{s.Workload, s.Name}
		r := rows[k]
		if r == nil {
			r = &selfRow{Name: s.Name, Workload: s.Workload}
			rows[k] = r
		}
		r.Count++
		r.Total += s.dur()
		r.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Workload != out[b].Workload {
			return out[a].Workload < out[b].Workload
		}
		if out[a].Self != out[b].Self {
			return out[a].Self > out[b].Self
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total time.Duration
	reach := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < reach {
			lo = reach
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// writeSelfTable prints the self-time table, largest self time first
// within each workload.
func writeSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-14s %-34s %6s %12s %12s\n", "workload", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-34s %6d %12.3f %12.3f\n", r.Workload, r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6)
	}
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (load the file in chrome://tracing or ui.perfetto.dev). Each event
// carries its span ID, parent ID and workload in args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
