// Package trace defines the execution-trace event model shared by every
// other package in enduratrace.
//
// A trace is a sequence of timestamped, typed events, exactly as produced by
// the dedicated low-intrusion tracing hardware described in the paper
// (§I–§II): each event carries a timestamp, a small integer event type, an
// integer argument and an optional opaque payload. Event types are declared
// in a Registry so that tools can print symbolic names and so that the
// pmf dimensionality (one dimension per event type) is known up front.
package trace

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// EventType identifies the kind of a trace event. Types are small integers
// so that a window's event-type histogram can be a dense vector.
type EventType uint16

// Event is a single timestamped trace record.
//
// TS is the time since the start of the trace (simulated time for synthetic
// workloads). Arg is an event-specific integer (frame number, queue depth,
// error code…). Payload carries opaque extra bytes; it exists chiefly so
// that encoded trace sizes are realistic, which matters because the paper's
// headline result is a byte-size reduction factor.
type Event struct {
	TS      time.Duration
	Type    EventType
	Arg     uint64
	Payload []byte
}

// String renders the event for debugging; symbolic names require a Registry.
func (e Event) String() string {
	return fmt.Sprintf("%v type=%d arg=%d payload=%dB", e.TS, e.Type, e.Arg, len(e.Payload))
}

// Reader is a stream of events, read many at a time. ReadBatch fills
// dst with as many immediately available events as fit and returns the
// count; it blocks only when no event is available at all, so a live
// reader is never asked to wait for a full batch. The contract mirrors
// io.Reader: n > 0 with a nil error even if the stream has since ended
// or failed — the error (io.EOF after the last event) surfaces on the
// next call, and every call after it returns it again. Events come in
// non-decreasing timestamp order. Consumers own dst and the returned
// events.
type Reader interface {
	ReadBatch(dst []Event) (int, error)
}

// Writer consumes a stream of events.
type Writer interface {
	Write(Event) error
}

// ErrOutOfOrder is returned by writers when an event's
// timestamp precedes its predecessor's.
var ErrOutOfOrder = errors.New("trace: event timestamps out of order")

// SliceReader replays an in-memory event slice. The zero value is an empty
// trace.
type SliceReader struct {
	events []Event
	pos    int
}

// NewSliceReader returns a Reader over evs. The slice is not copied.
func NewSliceReader(evs []Event) *SliceReader {
	return &SliceReader{events: evs}
}

// ReadBatch implements Reader.
func (r *SliceReader) ReadBatch(dst []Event) (int, error) {
	if r.pos >= len(r.events) {
		return 0, io.EOF
	}
	n := copy(dst, r.events[r.pos:])
	r.pos += n
	return n, nil
}

// batchLen is how many events ReadAll and Copy ask for at a time.
const batchLen = 512

// ReadAll drains r into a slice. It is intended for tests and small traces;
// endurance-scale traces should be streamed.
func ReadAll(r Reader) ([]Event, error) {
	var evs []Event
	for {
		evs = slices.Grow(evs, batchLen)
		n, err := r.ReadBatch(evs[len(evs):cap(evs)])
		evs = evs[:len(evs)+n]
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
	}
}

// Copy streams every event from r to w and reports the number of events
// copied. It stops at io.EOF or the first error from either side.
func Copy(w Writer, r Reader) (int, error) {
	buf := make([]Event, batchLen)
	n := 0
	for {
		k, err := r.ReadBatch(buf)
		for _, ev := range buf[:k] {
			if werr := w.Write(ev); werr != nil {
				return n, werr
			}
			n++
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// Registry maps event types to symbolic names. It defines the pmf
// dimensionality: NumTypes is one past the highest registered type.
type Registry struct {
	names map[EventType]string
	max   EventType
	any   bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[EventType]string)}
}

// Register assigns name to t. Registering the same type twice with a
// different name is a programming error and panics.
func (reg *Registry) Register(t EventType, name string) {
	if old, ok := reg.names[t]; ok && old != name {
		panic(fmt.Sprintf("trace: event type %d registered twice (%q, %q)", t, old, name))
	}
	reg.names[t] = name
	if !reg.any || t > reg.max {
		reg.max = t
		reg.any = true
	}
}

// Name returns the symbolic name of t, or "type<N>" if unregistered.
func (reg *Registry) Name(t EventType) string {
	if n, ok := reg.names[t]; ok {
		return n
	}
	return fmt.Sprintf("type%d", t)
}

// NumTypes reports the pmf dimensionality implied by the registry: one past
// the highest registered event type, or 0 for an empty registry.
func (reg *Registry) NumTypes() int {
	if !reg.any {
		return 0
	}
	return int(reg.max) + 1
}

// Types returns all registered types in ascending order.
func (reg *Registry) Types() []EventType {
	ts := make([]EventType, 0, len(reg.names))
	for t := range reg.names {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}
