package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op;
// Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

func (s span) durMs() float64 { return s.EndMs - s.StartMs }

// tracer keeps spans in memory for the whole run. It is used from the
// op's goroutine only.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) sinceMs(at time.Time) float64 { return float64(at.Sub(t.origin)) / 1e6 }

// begin opens a span under parent and returns its ID. A nil tracer
// records nothing, so one code path serves traced and untraced calls.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, StartMs: t.sinceMs(time.Now()),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].EndMs = t.sinceMs(time.Now())
	}
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, StartMs: t.sinceMs(start), EndMs: t.sinceMs(end),
	})
	return len(t.spans)
}

// durMs returns span id's duration.
func (t *tracer) durMs(id int) float64 { return t.spans[id-1].durMs() }

// selfMs returns span id's duration minus the part of it that its
// child spans cover (overlapping children count once).
func (t *tracer) selfMs(id int) float64 {
	s := t.spans[id-1]
	var kids [][2]float64
	for _, c := range t.spans[id:] {
		if c.Parent == id {
			kids = append(kids, [2]float64{max(c.StartMs, s.StartMs), min(c.EndMs, s.EndMs)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, reach := 0.0, s.StartMs
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return s.durMs() - covered
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
