// Package window slices a trace stream into the elementary processing units
// of the paper's approach (§II, "Data representation"): fixed-duration
// time windows (the experiment in §III uses 40 ms windows).
package window

import (
	"fmt"
	"io"
	"math"
	"time"

	"enduratrace/internal/trace"
)

// Window is a contiguous slice of a trace. Start and End are the window
// boundaries (End exclusive); Index counts windows from 0 in stream order.
type Window struct {
	Index  int
	Start  time.Duration
	End    time.Duration
	Events []trace.Event
}

// Duration returns End - Start.
func (w Window) Duration() time.Duration { return w.End - w.Start }

// Len returns the number of events in the window.
func (w Window) Len() int { return len(w.Events) }

// Contains reports whether ts lies in [Start, End).
func (w Window) Contains(ts time.Duration) bool { return ts >= w.Start && ts < w.End }

// Clone returns w with its events copied into a slice of its own, of
// exact length: what a caller keeping a lent window stores.
func (w Window) Clone() Window {
	w.Events = append(make([]trace.Event, 0, len(w.Events)), w.Events...)
	return w
}

// carry holds the open window's events from earlier batches: the only
// events a windower copies. It is double-buffered, so the window that
// join closes can be lent from one buffer while the next open window
// fills the other.
type carry struct {
	open  []trace.Event // the open window's carried events
	spare []trace.Event // the buffer of the window join last lent
}

// keep appends evs, the open window's part of a batch, to the carry.
func (c *carry) keep(evs []trace.Event) {
	c.open = append(c.open, evs...)
}

// join closes the open window: it returns the carried events followed by
// tail as one exact-length slice and empties the carry. With nothing
// carried the slice is tail itself, lent from the caller's batch;
// otherwise it is lent from the carry's buffer, valid until the next join.
func (c *carry) join(tail []trace.Event) []trace.Event {
	if len(c.open) == 0 {
		return tail[:len(tail):len(tail)]
	}
	events := append(c.open, tail...)
	c.open, c.spare = c.spare[:0], events
	return events[:len(events):len(events)]
}

// ByTime groups events into fixed-duration windows aligned to multiples of
// the window length, turning an event stream into a window stream. Cut
// consumes a batch of events from the front of evs, appends every window
// they close to dst, and returns the extended dst and the number of events
// consumed. It appends at most max windows (max > 0): when the next window
// to close would be one more, it stops before the event that closes it and
// returns a count short of len(evs), so a caller can judge what it has and
// call again with the rest — a long timestamp gap then costs max windows
// of memory a call, not one window per gap length. Flush returns the final
// partial window, if any. A ByTime is single-use.
//
// Windows are lent, not given: each Events slice is of exact length
// (len == cap), and it is a sub-slice of evs when the window closes
// inside the batch, or of a buffer the windower reuses when the window
// spans batches (and for Flush). A lent window is valid until the next
// Cut or Flush on the same windower, or until the caller overwrites evs.
// A caller that keeps a window past that copies it (Window.Clone, or a
// Ring); the windower itself copies only the open window's part of a
// batch, which must outlive the caller's next read.
//
// Empty windows ARE emitted for gaps in the stream:
// during a decoder stall the event rate collapses, and those near-empty
// windows are precisely the behaviour change the monitor must see.
//
// An event earlier than the current window (out of order) joins the
// current window. The window arithmetic saturates: the last window before
// math.MaxInt64 ends at math.MaxInt64, so no window ends before it starts
// and an event near the end of the time axis closes no window.
type ByTime struct {
	d       time.Duration
	carry   carry
	index   int
	cur     time.Duration // start of the current window
	started bool

	// Add's queue of closed windows, each a copy, drained by Add and
	// Drain.
	pending []Window
	head    int
	one     [1]trace.Event // Add's one-event batch
}

// NewByTime returns a time windower; d must be positive.
func NewByTime(d time.Duration) *ByTime {
	if d <= 0 {
		panic(fmt.Sprintf("window: ByTime duration must be positive, got %v", d))
	}
	return &ByTime{d: d}
}

// closes reports whether ts lies at or past the end of the current
// window, without computing the end (which may not fit in an int64).
func (t *ByTime) closes(ts time.Duration) bool {
	return ts >= t.cur && uint64(ts)-uint64(t.cur) >= uint64(t.d)
}

// Cut scans the batch for the events that close windows and lends each
// window that closes inside the batch as a sub-slice of it; only the part
// of a window that spans batches is copied, into the carry.
//
//enduratrace:zeroalloc
func (t *ByTime) Cut(dst []Window, evs []trace.Event, max int) ([]Window, int) {
	if len(evs) == 0 {
		return dst, 0
	}
	if !t.started {
		t.started = true
		t.cur = evs[0].TS - evs[0].TS%t.d
	}
	i, j, emitted := 0, 0, 0 // evs[i:j] is the open window's part of the batch
	for j < len(evs) {
		if !t.closes(evs[j].TS) {
			j++
			continue
		}
		if emitted == max {
			break
		}
		dst = append(dst, t.emit(evs[i:j]))
		emitted++
		i = j
	}
	t.carry.keep(evs[i:j])
	return dst, j
}

// Add is Cut for one event. When the event jumps several window lengths
// ahead, the first window it closes is returned and the rest are queued
// for Drain; callers should use Drain after each Add to collect all
// completed windows. Unlike Cut's, these windows are copies the caller
// may keep.
func (t *ByTime) Add(ev trace.Event) (Window, bool) {
	t.one[0] = ev
	if t.started && !t.closes(ev.TS) {
		// What Cut does with an event that closes nothing, without
		// building a batch for it.
		t.carry.keep(t.one[:])
	} else {
		n := len(t.pending)
		t.pending, _ = t.Cut(t.pending, t.one[:], math.MaxInt)
		for i := n; i < len(t.pending); i++ {
			t.pending[i] = t.pending[i].Clone()
		}
	}
	return t.pop()
}

// Drain returns the next queued completed window, if any. Call repeatedly
// after Add until ok is false.
func (t *ByTime) Drain() (Window, bool) { return t.pop() }

// Flush closes the current window if it holds any events. Windows queued
// by Add must be collected with Drain first.
func (t *ByTime) Flush() (Window, bool) {
	if w, ok := t.pop(); ok {
		return w, ok
	}
	if !t.started || len(t.carry.open) == 0 {
		return Window{}, false
	}
	return t.emit(nil), true
}

func (t *ByTime) pop() (Window, bool) {
	if t.head == len(t.pending) {
		return Window{}, false
	}
	w := t.pending[t.head]
	t.pending[t.head] = Window{}
	t.head++
	if t.head == len(t.pending) {
		t.pending, t.head = t.pending[:0], 0
	}
	return w, true
}

// emit closes the current window, made of the carried events followed by
// tail, and opens the next one.
func (t *ByTime) emit(tail []trace.Event) Window {
	end := t.cur + t.d
	if t.cur > math.MaxInt64-t.d {
		end = math.MaxInt64
	}
	w := Window{
		Index:  t.index,
		Start:  t.cur,
		End:    end,
		Events: t.carry.join(tail),
	}
	t.index++
	t.cur = end
	return w
}

// streamBatch is how many events Stream reads, and windows it cuts, at a
// time: a long timestamp gap is handed over in bounded chunks instead of
// being held whole.
const streamBatch = 512

// Stream applies a windower to a reader: it reads events streamBatch at
// a time, cuts each batch, and hands fn the windows of each cut, in
// order, as one batch — the final flush included. Every event of the
// stream lands in exactly one window. fn returning an error aborts the
// stream. The windows fn gets are lent: valid until fn returns.
func Stream(r trace.Reader, w *ByTime, fn func([]Window) error) error {
	evs := make([]trace.Event, streamBatch)
	var wins []Window
	for {
		n, err := r.ReadBatch(evs)
		for rest := evs[:n]; len(rest) > 0; {
			var k int
			wins, k = w.Cut(wins[:0], rest, streamBatch)
			rest = rest[k:]
			if len(wins) > 0 {
				if err := fn(wins); err != nil {
					return err
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if win, ok := w.Flush(); ok {
		return fn(append(wins[:0], win))
	}
	return nil
}

// Collect gathers a copy of every window produced from r into a slice.
// Intended for tests and small traces.
func Collect(r trace.Reader, w *ByTime) ([]Window, error) {
	var out []Window
	err := Stream(r, w, func(wins []Window) error {
		for _, win := range wins {
			out = append(out, win.Clone())
		}
		return nil
	})
	return out, err
}

// Ring keeps copies of the last windows pushed into it, oldest first.
// Each slot reuses its event buffer, so once every slot has held a window
// as long as the one pushed, keeping a lent window allocates nothing.
type Ring struct {
	n     int
	slots []Window // oldest first; entries past len keep their buffers
}

// NewRing returns a ring of n windows (n >= 0).
func NewRing(n int) *Ring {
	if n < 0 {
		panic(fmt.Sprintf("window: Ring size must not be negative, got %d", n))
	}
	return &Ring{n: n}
}

// Push copies w into the ring as its newest window, dropping the oldest
// when the ring is full.
func (r *Ring) Push(w Window) {
	switch {
	case r.n == 0:
		return
	case len(r.slots) == r.n:
		// Full: the oldest slot's buffer takes the new window.
		oldest := r.slots[0]
		copy(r.slots, r.slots[1:])
		r.slots[r.n-1] = oldest
	case len(r.slots) < cap(r.slots):
		r.slots = r.slots[:len(r.slots)+1]
	default:
		r.slots = append(r.slots, Window{})
	}
	s := &r.slots[len(r.slots)-1]
	events := append(s.Events[:0], w.Events...)
	*s = w
	s.Events = events
}

// Windows returns the kept windows, oldest first. They are the ring's:
// valid until the next Push or Reset.
func (r *Ring) Windows() []Window { return r.slots }

// Reset empties the ring, keeping its buffers.
func (r *Ring) Reset() { r.slots = r.slots[:0] }
