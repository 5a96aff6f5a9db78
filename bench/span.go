package main

import (
	"bufio"
	"encoding/json"
	"os"
)

// span is one timed call across a layer boundary. Spans of one window
// share its index as ID; Parent is the index of the enclosing span in the
// tracer's list, -1 at the root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int    `json:"id"`
}

// tracer keeps the spans of one single-goroutine replay in memory. A nil
// tracer records nothing, so the replay can run as the plain reference
// computation.
type tracer struct {
	clk   clock
	spans []span
	open  []int // indices of the spans not yet ended, innermost last
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, id int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: id})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].Start = t.clk.Now()
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = t.clk.Now()
	t.open = t.open[:len(t.open)-1]
}

// layerTime is one span name's books.
type layerTime struct {
	calls  int
	selfNs int64
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover. Children never overlap: one goroutine recorded them.
func selfTimes(spans []span) map[string]layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.calls++
		lt.selfNs += s.End - s.Start - child[i]
		out[s.Name] = lt
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
