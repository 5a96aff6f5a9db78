package window

import (
	"math"
	"testing"
	"time"

	"enduratrace/internal/trace"
)

func ev(ts time.Duration) trace.Event { return trace.Event{TS: ts, Type: 1} }

func TestByCountSizing(t *testing.T) {
	w := NewByCount(3)
	var out []Window
	for i := 0; i < 7; i++ {
		// Cut lends its windows until the next Cut: keep copies.
		n := len(out)
		out, _ = w.Cut(out, []trace.Event{ev(time.Duration(i) * time.Millisecond)}, 1)
		for j := n; j < len(out); j++ {
			out[j] = out[j].Clone()
		}
	}
	if win, ok := w.Flush(); ok {
		out = append(out, win)
	}
	if len(out) != 3 {
		t.Fatalf("got %d windows, want 3", len(out))
	}
	wantLens := []int{3, 3, 1}
	for i, win := range out {
		if win.Index != i {
			t.Fatalf("window %d has index %d", i, win.Index)
		}
		if win.Len() != wantLens[i] {
			t.Fatalf("window %d has %d events, want %d", i, win.Len(), wantLens[i])
		}
		if win.Start != win.Events[0].TS || win.End != win.Events[len(win.Events)-1].TS {
			t.Fatalf("window %d bounds %v..%v don't match events", i, win.Start, win.End)
		}
	}
	if _, ok := w.Flush(); ok {
		t.Fatal("second Flush produced a window")
	}
}

func TestByTimeBoundaries(t *testing.T) {
	// 10 ms windows; an event exactly on a boundary belongs to the next
	// window (End is exclusive).
	w := NewByTime(10 * time.Millisecond)
	if _, ok := w.Add(ev(0)); ok {
		t.Fatal("window closed too early")
	}
	if _, ok := w.Add(ev(5 * time.Millisecond)); ok {
		t.Fatal("window closed too early")
	}
	win, ok := w.Add(ev(10 * time.Millisecond))
	if !ok {
		t.Fatal("boundary event did not close the window")
	}
	if win.Start != 0 || win.End != 10*time.Millisecond || win.Len() != 2 {
		t.Fatalf("bad first window: %+v", win)
	}
	for _, e := range win.Events {
		if !win.Contains(e.TS) {
			t.Fatalf("event %v outside window [%v,%v)", e.TS, win.Start, win.End)
		}
	}
	win, ok = w.Flush()
	if !ok || win.Start != 10*time.Millisecond || win.Len() != 1 {
		t.Fatalf("bad flush window: %+v ok=%v", win, ok)
	}
}

func TestByTimeEmitsEmptyGapWindows(t *testing.T) {
	// Events at 0 and 35 ms with 10 ms windows: the stream crosses windows
	// [0,10) [10,20) [20,30), of which the last two are empty. Empty
	// windows must be emitted — a stalled pipeline looks exactly like this.
	w := NewByTime(10 * time.Millisecond)
	var out []Window
	collect := func(win Window, ok bool) {
		if ok {
			out = append(out, win)
		}
	}
	collect(w.Add(ev(0)))
	collect(w.Add(ev(35 * time.Millisecond)))
	for {
		win, ok := w.Drain()
		if !ok {
			break
		}
		out = append(out, win)
	}
	collect(w.Flush())
	if len(out) != 4 {
		t.Fatalf("got %d windows, want 4 (including empties)", len(out))
	}
	wantLens := []int{1, 0, 0, 1}
	for i, win := range out {
		if win.Index != i {
			t.Fatalf("window %d has index %d", i, win.Index)
		}
		if win.Len() != wantLens[i] {
			t.Fatalf("window %d has %d events, want %d", i, win.Len(), wantLens[i])
		}
		if win.Start != time.Duration(i)*10*time.Millisecond || win.Duration() != 10*time.Millisecond {
			t.Fatalf("window %d spans [%v,%v)", i, win.Start, win.End)
		}
	}
}

func TestByTimeAlignsToMultiples(t *testing.T) {
	// First event at 25 ms with 10 ms windows: windows align to multiples
	// of the window length, so the first window is [20,30).
	w := NewByTime(10 * time.Millisecond)
	w.Add(ev(25 * time.Millisecond))
	win, ok := w.Flush()
	if !ok || win.Start != 20*time.Millisecond || win.End != 30*time.Millisecond {
		t.Fatalf("first window [%v,%v), want [20ms,30ms)", win.Start, win.End)
	}
}

func TestStreamAndCollect(t *testing.T) {
	var evs []trace.Event
	for i := 0; i < 100; i++ {
		evs = append(evs, ev(time.Duration(i)*3*time.Millisecond))
	}
	ws, err := Collect(trace.NewSliceReader(evs), NewByTime(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, win := range ws {
		if win.Index != i {
			t.Fatalf("window %d has index %d", i, win.Index)
		}
		for _, e := range win.Events {
			if !win.Contains(e.TS) {
				t.Fatalf("event %v outside its window", e.TS)
			}
		}
		total += win.Len()
	}
	if total != len(evs) {
		t.Fatalf("windows hold %d events, want %d", total, len(evs))
	}
	// 100 events at 3 ms cover [0, 297]; 10 ms windows → 30 windows.
	if len(ws) != 30 {
		t.Fatalf("got %d windows, want 30", len(ws))
	}
}

func TestNewByCountPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ByCount(0)")
		}
	}()
	NewByCount(0)
}

// TestByTimeNearMaxInt64: the window arithmetic must not overflow at the
// end of the time axis. Before it was overflow-safe, one event at
// math.MaxInt64-1 made Add loop forever, queueing windows until the
// process ran out of memory.
func TestByTimeNearMaxInt64(t *testing.T) {
	d := 40 * time.Millisecond
	done := make(chan []Window, 1)
	go func() {
		var out []Window
		w := NewByTime(d)
		for _, ts := range []time.Duration{math.MaxInt64 - 1, math.MaxInt64} {
			if win, ok := w.Add(ev(ts)); ok {
				out = append(out, win)
			}
			for {
				win, ok := w.Drain()
				if !ok {
					break
				}
				out = append(out, win)
			}
		}
		if win, ok := w.Flush(); ok {
			out = append(out, win)
		}
		done <- out
	}()
	select {
	case out := <-done:
		if len(out) != 1 {
			t.Fatalf("got %d windows, want 1", len(out))
		}
		w := out[0]
		if w.Len() != 2 || w.End < w.Start || w.End != math.MaxInt64 ||
			w.Start != math.MaxInt64-math.MaxInt64%d {
			t.Fatalf("last window [%v, %v) with %d events, want [MaxInt64 - MaxInt64%%d, MaxInt64) with 2",
				int64(w.Start), int64(w.End), w.Len())
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ByTime.Add did not return for an event near math.MaxInt64")
	}
}

// TestRingKeepsCopies: a Ring keeps the last n windows pushed, as copies
// that outlive the batch they were lent from, and once warm a push
// allocates nothing.
func TestRingKeepsCopies(t *testing.T) {
	r := NewRing(2)
	batch := make([]trace.Event, 3)
	push := func(i int) {
		for j := range batch {
			batch[j] = ev(time.Duration(10*i + j))
		}
		r.Push(Window{Index: i, Events: batch[:i%4]})
		for j := range batch {
			batch[j] = trace.Event{TS: -1, Type: 99} // the caller reuses its batch
		}
	}
	for i := 0; i < 7; i++ {
		push(i)
	}
	ws := r.Windows()
	if len(ws) != 2 || ws[0].Index != 5 || ws[1].Index != 6 {
		t.Fatalf("ring holds %v, want windows 5 and 6", ws)
	}
	for _, w := range ws {
		if len(w.Events) != w.Index%4 {
			t.Fatalf("window %d keeps %d events, want %d", w.Index, len(w.Events), w.Index%4)
		}
		for j, e := range w.Events {
			if e.TS != time.Duration(10*w.Index+j) {
				t.Fatalf("window %d event %d is %v: the ring kept the caller's batch, not a copy", w.Index, j, e)
			}
		}
	}
	r.Reset()
	if len(r.Windows()) != 0 {
		t.Fatal("Reset left windows in the ring")
	}
	i := 8
	if allocs := testing.AllocsPerRun(100, func() { push(i); i++ }); allocs != 0 {
		t.Errorf("a warm Ring allocates %v times a push, want 0", allocs)
	}
}

// refWindower is the per-event windowing the cutters must reproduce: the
// original one-event-at-a-time arithmetic, with its comparisons written
// to be overflow-free.
type refWindower struct {
	count   int           // > 0: count windows of this many events
	d       time.Duration // otherwise time windows of this length
	cur     time.Duration
	started bool
	buf     []trace.Event
	out     []Window
}

func (r *refWindower) add(e trace.Event) {
	if r.count > 0 {
		r.buf = append(r.buf, e)
		if len(r.buf) == r.count {
			r.emit()
		}
		return
	}
	if !r.started {
		r.started = true
		r.cur = e.TS - e.TS%r.d
	}
	for r.cur <= math.MaxInt64-r.d && e.TS >= r.cur+r.d {
		r.emit()
	}
	r.buf = append(r.buf, e)
}

func (r *refWindower) flush() {
	if len(r.buf) > 0 {
		r.emit()
	}
}

func (r *refWindower) emit() {
	w := Window{Index: len(r.out), Events: append([]trace.Event{}, r.buf...)}
	if r.count > 0 {
		w.Start, w.End = r.buf[0].TS, r.buf[len(r.buf)-1].TS
	} else {
		w.Start, w.End = r.cur, math.MaxInt64
		if r.cur <= math.MaxInt64-r.d {
			w.End = r.cur + r.d
		}
		r.cur = w.End
	}
	r.out = append(r.out, w)
	r.buf = r.buf[:0]
}

// fuzzTrace turns fuzz bytes into events and batch splits. Each byte pair
// is one event: a signed step from the previous timestamp of up to 127 ns,
// 8 windows or 320 windows (so gaps and out-of-order events both occur),
// and whether a batch ends after it, possibly followed by an empty batch. Timestamps
// saturate at the ends of the int64 range, so a base near either end
// piles events on the edge.
func fuzzTrace(data []byte, base int64, d time.Duration) [][]trace.Event {
	var batches [][]trace.Event
	var cur []trace.Event
	ts := base
	for i := 0; i+1 < len(data); i += 2 {
		step := int64(int8(data[i]))
		switch data[i+1] % 3 {
		case 1:
			step = step >> 4 * int64(d)
		case 2:
			step = step >> 4 * 40 * int64(d)
		}
		switch {
		case step > 0 && ts > math.MaxInt64-step:
			ts = math.MaxInt64
		case step < 0 && ts < math.MinInt64-step:
			ts = math.MinInt64
		default:
			ts += step
		}
		cur = append(cur, trace.Event{TS: time.Duration(ts), Type: trace.EventType(data[i+1] >> 4), Arg: uint64(i)})
		if data[i+1]&0x0c == 0 {
			batches = append(batches, cur)
			cur = nil
			if data[i+1]&0x30 == 0 {
				batches = append(batches, nil)
			}
		}
	}
	return append(batches, cur)
}

// FuzzWindowCut: over arbitrary event sequences and batch splits, Cut
// with any window limit — and, one event at a time, ByTime's Add/Drain
// and ByCount's Cut — give exactly the windows of the per-event
// reference, each in an exact-length slice. Cut's windows are lent: each
// is checked as soon as Cut returns and then cloned, as a keeper would;
// the batch is poisoned once it is cut, so a windower that kept (carried)
// a sub-slice of it instead of a copy fails.
func FuzzWindowCut(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 0, 40, 2, 1, 1, 200, 1, 3, 4, 0, 0}, int64(0), uint8(9), uint8(0), false)
	f.Add([]byte{5, 0, 5, 4, 5, 8, 5, 0, 127, 2, 1, 0, 1, 0}, int64(12345), uint8(3), uint8(2), true)
	f.Add([]byte{1, 0, 1, 0, 100, 2, 3, 1}, int64(math.MaxInt64-50), uint8(15), uint8(1), false)
	f.Add([]byte{255, 2, 255, 2, 1, 0, 2, 0}, int64(math.MinInt64+20), uint8(4), uint8(3), false)
	f.Fuzz(func(t *testing.T, data []byte, base int64, dSel, maxSel uint8, count bool) {
		if len(data) > 256 {
			data = data[:256]
		}
		d := time.Duration(1 + dSel%16)
		limit := 1 + int(maxSel%5)
		batches := fuzzTrace(data, base, d)

		ref := &refWindower{d: d}
		var cutter Windower = NewByTime(d)
		if count {
			ref = &refWindower{count: 1 + int(dSel%7)}
			cutter = NewByCount(ref.count)
		}
		for _, b := range batches {
			for _, e := range b {
				ref.add(e)
			}
		}
		ref.flush()

		// check compares the i-th window of a cutter with the reference's.
		check := func(name string, i int, g Window) {
			t.Helper()
			if i >= len(ref.out) {
				t.Fatalf("%s: window %d, but the reference has only %d", name, i, len(ref.out))
			}
			w := ref.out[i]
			if g.Index != w.Index || g.Start != w.Start || g.End != w.End || len(g.Events) != len(w.Events) {
				t.Fatalf("%s: window %d is %d [%d, %d) with %d events, reference %d [%d, %d) with %d",
					name, i, g.Index, int64(g.Start), int64(g.End), len(g.Events),
					w.Index, int64(w.Start), int64(w.End), len(w.Events))
			}
			if !count && g.End < g.Start {
				t.Fatalf("%s: window %d ends before it starts", name, i)
			}
			if cap(g.Events) != len(g.Events) {
				t.Fatalf("%s: window %d has %d events in a slice of capacity %d", name, i, len(g.Events), cap(g.Events))
			}
			for j := range w.Events {
				if g.Events[j].TS != w.Events[j].TS || g.Events[j].Type != w.Events[j].Type || g.Events[j].Arg != w.Events[j].Arg {
					t.Fatalf("%s: window %d event %d is %+v, reference %+v", name, i, j, g.Events[j], w.Events[j])
				}
			}
		}

		var stepped []Window
		byTime := NewByTime(d)
		byCount := NewByCount(max(ref.count, 1))
		for _, b := range batches {
			for _, e := range b {
				if count {
					got, _ := byCount.Cut(nil, []trace.Event{e}, 1)
					for _, w := range got {
						check("one at a time", len(stepped), w)
						stepped = append(stepped, w.Clone())
					}
					continue
				}
				if w, ok := byTime.Add(e); ok {
					stepped = append(stepped, w)
				}
				for {
					w, ok := byTime.Drain()
					if !ok {
						break
					}
					stepped = append(stepped, w)
				}
			}
		}
		var last Windower = byTime
		if count {
			last = byCount
		}
		if w, ok := last.Flush(); ok {
			check("one at a time", len(stepped), w)
			stepped = append(stepped, w.Clone())
		}

		var cut []Window
		for _, b := range batches {
			rest := b
			for {
				got, k := cutter.Cut(nil, rest, limit)
				if len(got) > limit {
					t.Fatalf("Cut appended %d windows, limit %d", len(got), limit)
				}
				if k < len(rest) && len(got) != limit {
					t.Fatalf("Cut stopped after %d of %d events with %d windows, below its limit %d",
						k, len(rest), len(got), limit)
				}
				for _, w := range got {
					check("batched", len(cut), w)
					cut = append(cut, w.Clone())
				}
				rest = rest[k:]
				if len(rest) == 0 {
					break
				}
			}
			for i := range b {
				b[i] = trace.Event{TS: -1, Type: 99} // the carry must not alias the batch
			}
		}
		if w, ok := cutter.Flush(); ok {
			check("batched", len(cut), w)
			cut = append(cut, w.Clone())
		}

		for name, got := range map[string][]Window{"batched": cut, "one at a time": stepped} {
			if len(got) != len(ref.out) {
				t.Fatalf("%s: %d windows, reference %d", name, len(got), len(ref.out))
			}
			for i, w := range got {
				check(name, i, w)
			}
		}
	})
}

// benchEvents is a trace at the paper's density: 40 µs between events,
// so a 40 ms window holds 1 000 of them.
func benchEvents(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{TS: time.Duration(i) * 40 * time.Microsecond, Type: trace.EventType(i % 25), Arg: uint64(i)}
	}
	return evs
}

// BenchmarkByTimeCut measures windowing per event over 512-event batches:
// "cut" hands each batch to Cut, "add" feeds the same events one at a
// time through Add and Drain.
func BenchmarkByTimeCut(b *testing.B) {
	const batch = 512
	evs := benchEvents(64 * batch)
	b.Run("cut", func(b *testing.B) {
		var wins []Window
		for i := 0; i < b.N; i++ {
			w := NewByTime(40 * time.Millisecond)
			for off := 0; off < len(evs); off += batch {
				for rest := evs[off : off+batch]; len(rest) > 0; {
					var k int
					wins, k = w.Cut(wins[:0], rest, batch)
					rest = rest[k:]
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
	})
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := NewByTime(40 * time.Millisecond)
			for _, e := range evs {
				w.Add(e)
				for {
					if _, ok := w.Drain(); !ok {
						break
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
	})
}
