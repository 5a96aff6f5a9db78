package main

import (
	"io"
	"runtime"
	"sync/atomic"
	"time"
)

// clock is the generator's view of time, so that pacing and lag
// arithmetic can be tested against a fake. Times are nanoseconds since an
// arbitrary epoch.
type clock interface {
	Now() int64
	Sleep(d time.Duration)
	// Yield lets other goroutines run; a fake clock advances instead.
	Yield()
}

type wallClock struct{ epoch time.Time }

// processClock is the wall clock every pass and replay of this process
// reads, so that times taken by different parts compare.
var processClock = wallClock{epoch: time.Now()}

func (c wallClock) Now() int64          { return int64(time.Since(c.epoch)) }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }
func (wallClock) Yield()                { runtime.Gosched() }

// generator drives one connection from pre-encoded bytes. It keeps the
// stream open when it stops: the caller reads the heap with the streams
// live, then calls finish.
type generator struct {
	st  *streamInput
	clk clock

	// sentEvents follows the stream as it is written, for the backlog
	// sampler; everything below is valid once the run function returns.
	sentEvents atomic.Int64

	pos       position // frame boundary the stream was cut at
	blockedNs int64    // time spent inside Write
	// due[i] is when the i-th frame sent was due: its scheduled time open
	// loop, the moment the generator was ready to write it closed loop.
	// lateMs[i] is how long after that an open-loop frame was handed to
	// the socket; eosDue is when the end-of-stream marker was due.
	due    []int64
	lateMs []float64
	eosDue int64
	err    error
}

func (g *generator) write(w io.Writer, b []byte) bool {
	t := g.clk.Now()
	_, g.err = w.Write(b)
	g.blockedNs += g.clk.Now() - t
	return g.err == nil
}

// runClosed sends frames back to back with blocking writes, replaying
// the lap body as often as needed, and stops at the first stop frame sent
// once the deadline has passed and the stream has reached atLeast.
func (g *generator) runClosed(w io.Writer, deadline int64, atLeast position) {
	if !g.write(w, g.st.header) {
		return
	}
	g.due = make([]int64, 0, 1<<12)
	for {
		lap := g.st.lapAt(g.pos.lap)
		for g.pos.frames < len(lap.frames) {
			f := lap.frames[g.pos.frames]
			g.due = append(g.due, g.clk.Now())
			if !g.write(w, lap.frameBytes(g.pos.frames)) {
				return
			}
			g.pos.frames++
			events, _ := g.st.sent(g.pos)
			g.sentEvents.Store(int64(events))
			if f.stop && !g.pos.before(atLeast) && g.clk.Now() >= deadline {
				return
			}
		}
		g.pos = position{lap: g.pos.lap + 1}
	}
}

// runPaced sends each frame of the first lap at its due time, t0+due,
// until a frame would be due at or past the deadline. It never sleeps past
// a due time to catch up: a late frame goes out at once, its lag is still
// counted from when it was due, and how late it went is kept in lateMs.
func (g *generator) runPaced(w io.Writer, t0, deadline int64) {
	if !g.write(w, g.st.header) {
		return
	}
	lap := &g.st.first
	g.due = make([]int64, 0, len(lap.frames))
	g.lateMs = make([]float64, 0, len(lap.frames))
	for g.pos.frames < len(lap.frames) {
		f := lap.frames[g.pos.frames]
		due := t0 + int64(f.due)
		if due >= deadline {
			break
		}
		g.waitUntil(due)
		g.due = append(g.due, due)
		g.lateMs = append(g.lateMs, float64(g.clk.Now()-due)/1e6)
		if !g.write(w, lap.frameBytes(g.pos.frames)) {
			return
		}
		g.pos.frames++
		g.sentEvents.Store(int64(f.events))
	}
}

// timerSlop is how late the runtime may wake a sleeping goroutine: an
// idle scheduler waits for timers in whole milliseconds. The generator
// sleeps to within this of a due time and yields in a loop for the rest,
// which costs a fraction of a core and keeps frames on schedule.
const timerSlop = 500 * time.Microsecond

// waitUntil returns at due, or at once if due has passed.
func (g *generator) waitUntil(due int64) {
	if wait := due - g.clk.Now() - int64(timerSlop); wait > 0 {
		g.clk.Sleep(time.Duration(wait))
	}
	for g.clk.Now() < due {
		g.clk.Yield()
	}
}

// finish writes the end-of-stream marker. Its time is the due time of
// every window that only the end of the stream closes.
func (g *generator) finish(w io.Writer) {
	if g.err != nil {
		return
	}
	g.eosDue = g.clk.Now()
	g.write(w, []byte{0})
}

// dueOf returns when the frame that closes window win of the stream was
// due: the frame carrying the first event at or past the window's end,
// or the end-of-stream marker when no frame sent did.
func (g *generator) dueOf(win int) int64 {
	lap, sent := &g.st.first, 0
	if n := len(lap.closer); win >= n {
		lap = &g.st.body
		if len(lap.closer) == 0 {
			return g.eosDue // a paced lap is all there is
		}
		laps := (win - n) / len(lap.closer)
		win = (win - n) % len(lap.closer)
		sent = len(g.st.first.frames) + laps*len(lap.frames)
	}
	if i := sent + int(lap.closer[win]); i < len(g.due) {
		return g.due[i]
	}
	return g.eosDue
}
