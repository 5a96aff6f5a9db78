package obs

import (
	"sync"
	"time"
)

// Record is one sampled event's flight through the serve pipeline: where
// time went (per-stage durations) and what the monitor decided about the
// window the event landed in. Non-finite scores are omitted rather than
// breaking JSON encoding (GateDist is +Inf on a stream's first window,
// LOF is NaN when the gate did not trip).
type Record struct {
	Stream string `json:"stream"`
	Model  string `json:"model"`
	// Seq is the event's 1-based ordinal within its stream.
	Seq uint64 `json:"seq"`
	// Wall is the event's wall-clock arrival time (decode complete).
	Wall time.Time `json:"wall"`
	// Per-stage durations in nanoseconds. E2E spans arrival (enqueue) to
	// the decision on the window the event closed; it includes QueueNs and
	// ScoreNs but not DecodeNs, which precedes arrival.
	DecodeNs int64 `json:"decode_ns"`
	QueueNs  int64 `json:"queue_ns"`
	ScoreNs  int64 `json:"score_ns"`
	E2ENs    int64 `json:"e2e_ns"`
	// Window is the index of the window whose decision completed the span.
	Window int `json:"window"`
	// GateDist is the decision's core.Decision.GateDist: exact on a
	// tripped window, and on a quiet one possibly the upper bound that
	// certified it, between the exact distance and the threshold.
	GateDist    *float64 `json:"gate_dist,omitempty"`
	GateTripped bool     `json:"gate_tripped"`
	Anomalous   bool     `json:"anomalous"`
	LOF         *float64 `json:"lof,omitempty"`
}

// Flight is the event flight recorder: a bounded ring of Records fed by
// sampling every Nth event of every stream. Appends take a mutex, but at a
// sampling interval of hundreds of events the lock is touched ~kHz at
// worst — invisible next to the per-event path, which only does a modulo.
type Flight struct {
	every uint64

	mu      sync.Mutex
	ring    []Record
	next    int
	full    bool
	sampled uint64 // records ever added
	skipped uint64 // sampled events whose span never completed (overwritten in flight)
}

// NewFlight builds a recorder sampling every Nth event per stream into a
// ring of the given capacity. every and capacity must be positive.
func NewFlight(every, capacity int) *Flight {
	if every <= 0 || capacity <= 0 {
		return nil
	}
	return &Flight{every: uint64(every), ring: make([]Record, capacity)}
}

// EveryN returns the sampling interval.
func (f *Flight) EveryN() uint64 { return f.every }

// Add appends one completed record, evicting the oldest when full.
func (f *Flight) Add(r Record) {
	f.mu.Lock()
	f.ring[f.next] = r
	f.next++
	if f.next == len(f.ring) {
		f.next, f.full = 0, true
	}
	f.sampled++
	f.mu.Unlock()
}

// NoteSkipped counts a sampled event whose span was abandoned (a second
// sampled event reached the scorer before the first one's window closed).
func (f *Flight) NoteSkipped() {
	f.mu.Lock()
	f.skipped++
	f.mu.Unlock()
}

// FlightStats are the recorder's books.
type FlightStats struct {
	Every    uint64 `json:"every"`
	Capacity int    `json:"capacity"`
	Sampled  uint64 `json:"sampled"`
	Skipped  uint64 `json:"skipped"`
}

// Stats returns the recorder's books.
func (f *Flight) Stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FlightStats{Every: f.every, Capacity: len(f.ring), Sampled: f.sampled, Skipped: f.skipped}
}

// Records returns the retained records, oldest first.
func (f *Flight) Records() []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		out := make([]Record, f.next)
		copy(out, f.ring[:f.next])
		return out
	}
	out := make([]Record, len(f.ring))
	n := copy(out, f.ring[f.next:])
	copy(out[n:], f.ring[:f.next])
	return out
}
