package alert

import (
	"fmt"
	"sort"
)

// SinkBooks is one sink's delivery accounting.
type SinkBooks struct {
	Name      string `json:"name"`
	Delivered int64  `json:"delivered"`
	Errors    int64  `json:"errors"`
}

// ModelBooks is one model's transition accounting.
type ModelBooks struct {
	Model    string `json:"model"`
	Fired    int64  `json:"fired"`
	Resolved int64  `json:"resolved"`
}

// Books is the pipeline's full ledger. Every transition the state
// machines emit lands in exactly one pre-queue bucket (RateLimitedGlobal,
// QueueDropped, Enqueued), and every processed notification lands in
// exactly one per-sink bucket.
type Books struct {
	Fired             int64 `json:"fired"`
	Resolved          int64 `json:"resolved"`
	RateLimitedGlobal int64 `json:"rate_limited_global"`
	QueueDropped      int64 `json:"queue_dropped"`
	Enqueued          int64 `json:"enqueued"`
	Processed         int64 `json:"processed"`

	Sinks  []SinkBooks  `json:"sinks"`
	Models []ModelBooks `json:"models"`
}

// RateLimited is the notifications the global bucket refused, the
// "rate_limited" term of the balance equation.
func (b Books) RateLimited() int64 { return b.RateLimitedGlobal }

// Balanced verifies the delivery books after the queue has drained
// (Pipeline.Drain): transitions == rate-limited-global + queue-dropped +
// enqueued, enqueued all processed, and per sink processed == delivered +
// errors. With a single sink this is exactly `fired + resolved ==
// delivered + rate_limited + queue_dropped + errors`.
func (b Books) Balanced() error {
	transitions := b.Fired + b.Resolved
	if got := b.RateLimitedGlobal + b.QueueDropped + b.Enqueued; got != transitions {
		return fmt.Errorf("alert: books: %d transitions != rate-limited %d + queue-dropped %d + enqueued %d",
			transitions, b.RateLimitedGlobal, b.QueueDropped, b.Enqueued)
	}
	if b.Processed != b.Enqueued {
		return fmt.Errorf("alert: books: processed %d != enqueued %d (queue not drained?)", b.Processed, b.Enqueued)
	}
	for _, s := range b.Sinks {
		if got := s.Delivered + s.Errors; got != b.Processed {
			return fmt.Errorf("alert: books: sink %q delivered %d + errors %d != processed %d",
				s.Name, s.Delivered, s.Errors, b.Processed)
		}
	}
	var modelFired, modelResolved int64
	for _, m := range b.Models {
		modelFired += m.Fired
		modelResolved += m.Resolved
	}
	if modelFired != b.Fired || modelResolved != b.Resolved {
		return fmt.Errorf("alert: books: per-model totals fired %d/resolved %d != aggregate %d/%d",
			modelFired, modelResolved, b.Fired, b.Resolved)
	}
	return nil
}

// StreamStatus is one registered stream's row in GET /alerts.
type StreamStatus struct {
	Stream   string `json:"stream"`
	Model    string `json:"model"`
	State    string `json:"state"`
	Fired    int64  `json:"fired"`
	Resolved int64  `json:"resolved"`
}

// Snapshot is the admin view of the pipeline (GET /alerts).
type Snapshot struct {
	Books      Books          `json:"books"`
	QueueDepth int64          `json:"queue_depth"`
	Streams    []StreamStatus `json:"streams"`
	Recent     []Notification `json:"recent"`
}

// Books assembles the current ledger. Counter reads are individually
// atomic; for an exactly-balancing snapshot, quiesce and Drain first.
func (p *Pipeline) Books() Books {
	b := Books{
		RateLimitedGlobal: p.rlGlobal.Load(),
		QueueDropped:      p.queueDropped.Load(),
		Enqueued:          p.enqueued.Load(),
		Processed:         p.disp.processed.Load(),
	}
	p.mu.Lock()
	names := make([]string, 0, len(p.models))
	for name := range p.models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mc := p.models[name]
		mb := ModelBooks{
			Model:    name,
			Fired:    mc.fired.Load(),
			Resolved: mc.resolved.Load(),
		}
		b.Fired += mb.Fired
		b.Resolved += mb.Resolved
		b.Models = append(b.Models, mb)
	}
	p.mu.Unlock()
	for _, e := range p.disp.sinks {
		b.Sinks = append(b.Sinks, SinkBooks{
			Name:      e.sink.Name(),
			Delivered: e.delivered.Load(),
			Errors:    e.errors.Load(),
		})
	}
	return b
}

// QueueDepth reports notifications queued or in delivery.
func (p *Pipeline) QueueDepth() int64 { return p.disp.depth.Load() }

// Snapshot assembles the full admin view: books, queue depth, live
// stream states (firing first, then pending, then the rest, each group
// sorted by stream id), and the recent-notification ring (oldest first).
func (p *Pipeline) Snapshot() Snapshot {
	snap := Snapshot{
		Books:      p.Books(),
		QueueDepth: p.QueueDepth(),
	}
	p.mu.Lock()
	for s := range p.streams {
		snap.Streams = append(snap.Streams, StreamStatus{
			Stream:   s.stream,
			Model:    s.model,
			State:    s.State().String(),
			Fired:    s.fired.Load(),
			Resolved: s.resolved.Load(),
		})
	}
	if n := len(p.recent); n > 0 {
		snap.Recent = make([]Notification, 0, n)
		if n == cap(p.recent) {
			snap.Recent = append(snap.Recent, p.recent[p.recentAt:]...)
			snap.Recent = append(snap.Recent, p.recent[:p.recentAt]...)
		} else {
			snap.Recent = append(snap.Recent, p.recent...)
		}
	}
	p.mu.Unlock()
	rank := func(state string) int {
		switch state {
		case "firing":
			return 0
		case "pending":
			return 1
		}
		return 2
	}
	sort.Slice(snap.Streams, func(i, j int) bool {
		ri, rj := rank(snap.Streams[i].State), rank(snap.Streams[j].State)
		if ri != rj {
			return ri < rj
		}
		return snap.Streams[i].Stream < snap.Streams[j].Stream
	})
	return snap
}

// FiringStreams counts registered streams currently firing (the
// enduratrace_alerts_firing gauge).
func (p *Pipeline) FiringStreams() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for s := range p.streams {
		if s.State() == StateFiring {
			n++
		}
	}
	return n
}
