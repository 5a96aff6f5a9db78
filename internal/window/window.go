// Package window slices a trace stream into the elementary processing units
// of the paper's approach (§II, "Data representation"): windows of N
// consecutive events, as delivered by the tracing hardware's buffers, or
// fixed-duration time windows (the experiment in §III uses 40 ms windows).
package window

import (
	"fmt"
	"io"
	"math"
	"time"

	"enduratrace/internal/trace"
)

// Window is a contiguous slice of a trace.
//
// For count windows, Start/End are the first/last event timestamps; for time
// windows they are the window boundaries (End exclusive). Index counts
// windows from 0 in stream order.
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

// Windower turns an event stream into a window stream. Cut consumes a
// batch of events from the front of evs, appends every window they close
// to dst, and returns the extended dst and the number of events consumed.
// It appends at most max windows (max > 0): when the next window to close
// would be one more, it stops before the event that closes it and returns
// a count short of len(evs), so a caller can judge what it has and call
// again with the rest — a long timestamp gap then costs max windows of
// memory a call, not one window per gap length. Flush returns the final
// partial window, if any. A Windower is single-use.
//
// Every window owns a fresh Events slice of exact length: callers may keep
// windows (the context rings do) while the windower runs on.
type Windower interface {
	Cut(dst []Window, evs []trace.Event, max int) ([]Window, int)
	Flush() (Window, bool)
}

// ByCount groups every n consecutive events into a window, mirroring
// hardware trace buffers of n entries.
type ByCount struct {
	n     int
	carry []trace.Event // the open window's events from earlier batches
	index int
}

// NewByCount returns a count windower; n must be positive.
func NewByCount(n int) *ByCount {
	if n <= 0 {
		panic(fmt.Sprintf("window: ByCount size must be positive, got %d", n))
	}
	return &ByCount{n: n}
}

// Cut implements Windower.
func (c *ByCount) Cut(dst []Window, evs []trace.Event, max int) ([]Window, int) {
	j := 0
	for emitted := 0; len(c.carry)+len(evs)-j >= c.n; emitted++ {
		if emitted == max {
			return dst, j
		}
		k := j + c.n - len(c.carry)
		dst = append(dst, c.emit(evs[j:k]))
		j = k
	}
	c.carry = append(c.carry, evs[j:]...)
	return dst, len(evs)
}

// Flush implements Windower.
func (c *ByCount) Flush() (Window, bool) {
	if len(c.carry) == 0 {
		return Window{}, false
	}
	return c.emit(nil), true
}

// emit closes the window made of the carried events followed by tail.
func (c *ByCount) emit(tail []trace.Event) Window {
	events := joinEvents(c.carry, tail)
	c.carry = c.carry[:0]
	w := Window{
		Index:  c.index,
		Start:  events[0].TS,
		End:    events[len(events)-1].TS,
		Events: events,
	}
	c.index++
	return w
}

// joinEvents copies carry followed by tail into one exact-length slice —
// the only copy a window's events get when they arrived in one batch.
func joinEvents(carry, tail []trace.Event) []trace.Event {
	events := make([]trace.Event, len(carry)+len(tail))
	copy(events[copy(events, carry):], tail)
	return events
}

// ByTime groups events into fixed-duration windows aligned to multiples of
// the window length. Empty windows ARE emitted for gaps in the stream:
// during a decoder stall the event rate collapses, and those near-empty
// windows are precisely the behaviour change the monitor must see.
//
// An event earlier than the current window (out of order) joins the
// current window. The window arithmetic saturates: the last window before
// math.MaxInt64 ends at math.MaxInt64, so no window ends before it starts
// and an event near the end of the time axis closes no window.
type ByTime struct {
	d       time.Duration
	carry   []trace.Event // the open window's events from earlier batches
	index   int
	cur     time.Duration // start of the current window
	started bool

	// Add's queue of closed windows, drained by Add and Drain.
	pending []Window
	head    int
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

// Cut implements Windower. It scans the batch for the events that close
// windows, so each window's events are copied once, from the batch into
// the window; only the part of a window that spans batches waits in the
// carry buffer.
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
	t.carry = append(t.carry, evs[i:j]...)
	return dst, j
}

// Add is Cut for one event. When the event jumps several window lengths
// ahead, the first window it closes is returned and the rest are queued
// for Drain; callers should use Drain after each Add to collect all
// completed windows.
func (t *ByTime) Add(ev trace.Event) (Window, bool) {
	if t.started && !t.closes(ev.TS) {
		// What Cut does with an event that closes nothing, without
		// building a batch for it.
		t.carry = append(t.carry, ev)
	} else {
		t.pending, _ = t.Cut(t.pending, []trace.Event{ev}, math.MaxInt)
	}
	return t.pop()
}

// Drain returns the next queued completed window, if any. Call repeatedly
// after Add until ok is false.
func (t *ByTime) Drain() (Window, bool) { return t.pop() }

// Flush implements Windower: it closes the current window if it holds any
// events. Windows queued by Add must be collected with Drain first.
func (t *ByTime) Flush() (Window, bool) {
	if w, ok := t.pop(); ok {
		return w, ok
	}
	if !t.started || len(t.carry) == 0 {
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
		Events: joinEvents(t.carry, tail),
	}
	t.carry = t.carry[:0]
	t.index++
	t.cur = end
	return w
}

// streamBatch is how many events Stream reads, and windows it cuts, at a
// time.
const streamBatch = 512

// Stream applies a windower to a reader and invokes fn for every completed
// window including the final flush. fn returning an error aborts the stream.
func Stream(r trace.Reader, w Windower, fn func(Window) error) error {
	br, _ := r.(trace.BatchReader)
	evs := make([]trace.Event, streamBatch)
	var wins []Window
	for {
		var n int
		var err error
		if br != nil {
			n, err = br.ReadBatch(evs)
		} else if evs[0], err = r.Next(); err == nil {
			n = 1
		}
		for rest := evs[:n]; len(rest) > 0; {
			var k int
			wins, k = w.Cut(wins[:0], rest, streamBatch)
			rest = rest[k:]
			for _, win := range wins {
				if err := fn(win); err != nil {
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
		return fn(win)
	}
	return nil
}

// Collect gathers every window produced from r into a slice. Intended for
// tests and small traces.
func Collect(r trace.Reader, w Windower) ([]Window, error) {
	var out []Window
	err := Stream(r, w, func(win Window) error {
		out = append(out, win)
		return nil
	})
	return out, err
}
