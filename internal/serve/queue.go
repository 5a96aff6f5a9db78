package serve

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
)

// Backpressure selects what an ingester does when a stream's bounded
// event queue is full.
type Backpressure int

const (
	// Block stalls the ingest goroutine until the scorer catches up; the
	// stall propagates to the client through TCP flow control, so a slow
	// model slows the sender instead of losing data.
	Block Backpressure = iota
	// DropOldest discards the oldest queued event to admit the new one,
	// bounding client-visible latency at the cost of holes in the scored
	// stream; the drop count is reported per stream.
	DropOldest
)

// String implements fmt.Stringer with the flag spelling.
func (b Backpressure) String() string {
	switch b {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	default:
		return fmt.Sprintf("Backpressure(%d)", int(b))
	}
}

// ParseBackpressure parses the -backpressure flag value.
func ParseBackpressure(s string) (Backpressure, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-oldest":
		return DropOldest, nil
	default:
		return 0, fmt.Errorf("serve: unknown backpressure policy %q (want block or drop-oldest)", s)
	}
}

// eventQueue is the bounded handoff between a stream's ingest goroutine
// (socket → decode) and its scoring goroutine (window → gate → LOF →
// record). It implements trace.Reader on the consumer side (so
// core.Monitor.Run drains it in whole-batch passes); ReadBatch returns
// io.EOF once the queue is closed and drained, so a run over the queue
// terminates cleanly whatever ended ingestion.
//
// All four counters move under the queue mutex and are read together via
// Counters(), so any observer sees a consistent snapshot obeying
//
//	ingested == scored + dropped + depth
//
// at all times — in particular, drops observed mid-drain always equal the
// drops in the final per-stream totals. (An earlier revision bumped the
// scored counter outside the lock, so a concurrent /stats read could
// catch an event that had left the buffer but was not yet counted
// anywhere; TestEventQueueCountersConsistentUnderRace pins the fix.)
//
// Instrumentation rides the queue as runs, not per event: the events one
// PushBatch admits share an arrival time and a decode share, and the
// events one ReadBatch pops share a pop time, so the stage histograms are
// fed once per run (obs.Histogram.ObserveN). An event's stream ordinal is
// not stored either: the head event's is scored + dropped + 1.
type eventQueue struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	buf      []trace.Event // ring buffer
	head     int
	n        int
	closed   bool
	policy   Backpressure

	dropped  int64 // guarded by mu
	ingested int64 // guarded by mu
	scored   int64 // guarded by mu

	// runs rides beside buf, oldest run first: the queued events, in
	// order, belong to runs[rhead], runs[rhead+1], … up to rtail. A run is
	// never empty, so the ring needs no more slots than buf has.
	runs         []run
	rhead, rtail int

	pipe        *obs.Pipeline // per-model stage histograms (QueueWait observed at pop)
	flightEvery uint64        // flight-sample every Nth event of the stream; 0 = never

	// evBytes is the reader's count of the events' encoded size, shed ones
	// included: the ingester stores it before each push.
	evBytes atomic.Int64

	// lastPushNs/lastPopNs feed the stall watchdog: the monotonic time
	// (obs.Now) of the most recent enqueue and dequeue. Atomics so the
	// admin endpoints can read them against a live queue.
	lastPushNs atomic.Int64
	lastPopNs  atomic.Int64

	// Consumer-side state, owned by the scoring goroutine (the only
	// caller of ReadBatch, takeArrivals and takeFlight): the runs
	// ReadBatch copies out under the lock so that observing them can
	// happen after unlock, the runs popped since the last window decision
	// (drained into the E2E histogram by the decision callback), and the
	// most recent flight-sampled event awaiting its window's decision.
	popped      []run
	pending     []run
	flightSlot  flightSample
	hasFlight   bool
	flightSkips int
}

// run is the instrumentation consecutive queued events share: what one
// PushBatch admitted in one piece.
type run struct {
	enqNs    int64 // obs.Now at enqueue (arrival: decode complete)
	decodeNs int64 // each event's share of the time spent obtaining the batch off the socket
	n        int
}

// flightSample is one flight-sampled event as the pop saw it.
type flightSample struct {
	seq      uint64 // 1-based ordinal within the stream
	enqNs    int64
	decodeNs int64
	waitNs   int64 // time spent queued
}

// pendingCap bounds the consumer-side arrival buffer, in runs. Arrivals
// beyond it are folded into the newest entry — counted at its arrival
// time, never lost — so the E2E histogram's _count is the number of
// events scored however long a window lasts.
const pendingCap = 4096

// newEventQueue builds a queue feeding pipe's QueueWait histogram and
// flight-sampling every flightEvery-th event (0: none).
func newEventQueue(capacity int, policy Backpressure, pipe *obs.Pipeline, flightEvery uint64) *eventQueue {
	if capacity <= 0 {
		capacity = 1024
	}
	q := &eventQueue{
		buf:         make([]trace.Event, capacity),
		runs:        make([]run, capacity),
		policy:      policy,
		pipe:        pipe,
		flightEvery: flightEvery,
		pending:     make([]run, 0, 64),
	}
	q.notFull.L = &q.mu
	q.notEmpty.L = &q.mu
	now := obs.Now()
	q.lastPushNs.Store(now)
	q.lastPopNs.Store(now)
	return q
}

// PushBatch enqueues evs, one run per mutex acquisition: the events share
// the arrival timestamp enqNs (the whole batch became visible at the same
// ReadBatch return) and the per-event decode share decodeNs. Under Block
// the batch is admitted in pieces no larger than the free space, waking
// the consumer between pieces, so a batch larger than the queue cannot
// deadlock; under DropOldest each piece evicts as many of the oldest
// events as it needs room for. Returns false once the queue is closed
// (shutdown), telling the ingester to stop — events admitted before the
// close stay counted and consumable.
//
//enduratrace:zeroalloc
func (q *eventQueue) PushBatch(evs []trace.Event, enqNs, decodeNs int64) bool {
	for len(evs) > 0 {
		q.mu.Lock()
		if q.policy == Block {
			for q.n == len(q.buf) && !q.closed {
				q.notFull.Wait()
			}
		}
		if q.closed {
			q.mu.Unlock()
			return false
		}
		k := min(len(evs), len(q.buf))
		if over := q.n + k - len(q.buf); over > 0 {
			if q.policy == Block {
				k -= over
			} else {
				q.head = (q.head + over) % len(q.buf)
				q.n -= over
				q.dropped += int64(over)
				for over > 0 {
					over -= q.takeHead(over).n
				}
			}
		}
		tail := (q.head + q.n) % len(q.buf)
		c := copy(q.buf[tail:], evs[:k])
		copy(q.buf, evs[c:k])
		q.runs[q.rtail] = run{enqNs: enqNs, decodeNs: decodeNs, n: k}
		q.rtail = (q.rtail + 1) % len(q.runs)
		q.n += k
		// Count before unlocking: the consumer may pop (and bump scored) the
		// instant the lock drops, and scored must never exceed ingested.
		q.ingested += int64(k)
		q.lastPushNs.Store(enqNs)
		q.mu.Unlock()
		q.notEmpty.Signal()
		evs = evs[k:]
	}
	return true
}

// takeHead removes the oldest run, or its first k events when it holds
// more, and returns what it removed. The caller holds mu and moves the
// event ring and the books to match.
func (q *eventQueue) takeHead(k int) run {
	r := &q.runs[q.rhead]
	t := *r
	if t.n > k {
		t.n = k
		r.n -= k
		return t
	}
	q.rhead = (q.rhead + 1) % len(q.runs)
	return t
}

// Close stops ingestion; queued events remain consumable (the drain).
// Idempotent.
func (q *eventQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// ReadBatch implements trace.Reader for the scoring side: it pops
// every immediately available event (up to len(dst)) under one mutex
// acquisition, blocking only when the queue is empty and open. scored
// moves inside the lock — an event must never be invisible to a
// concurrent Counters(), gone from the buffer yet not scored — while the
// observation work (QueueWait, pending arrivals, flight slot) happens
// after unlock, once per run, on runs copied out under the lock.
//
//enduratrace:zeroalloc
func (q *eventQueue) ReadBatch(dst []trace.Event) (int, error) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 {
		q.mu.Unlock()
		return 0, io.EOF
	}
	k := min(len(dst), q.n)
	seq := uint64(q.scored+q.dropped) + 1 // the head event's stream ordinal
	c := copy(dst[:k], q.buf[q.head:])
	copy(dst[c:k], q.buf)
	clear(q.buf[q.head : q.head+c]) // drop payload references
	clear(q.buf[:k-c])
	q.popped = q.popped[:0]
	for left := k; left > 0; {
		r := q.takeHead(left)
		q.popped = append(q.popped, r)
		left -= r.n
	}
	q.head = (q.head + k) % len(q.buf)
	q.n -= k
	q.scored += int64(k)
	q.mu.Unlock()
	q.notFull.Signal()

	now := obs.Now()
	q.lastPopNs.Store(now)
	for _, r := range q.popped {
		wait := now - r.enqNs
		q.pipe.QueueWait.ObserveN(wait, r.n)
		// Arrivals accumulate until the next window decision drains them
		// into the E2E histogram; pieces of one run rejoin, and at the cap
		// the newest entry absorbs the rest.
		if last := len(q.pending) - 1; last >= 0 && (q.pending[last].enqNs == r.enqNs || last+1 == pendingCap) {
			q.pending[last].n += r.n
		} else {
			q.pending = append(q.pending, r)
		}
		// The run's flight-sampled events are the multiples of flightEvery
		// in [seq, seq+n): the last takes the slot; each earlier one, and a
		// previous sample still waiting for its decision, is overwritten.
		if q.flightEvery > 0 {
			end := seq + uint64(r.n) - 1
			if hits := end/q.flightEvery - (seq-1)/q.flightEvery; hits > 0 {
				q.flightSkips += int(hits) - 1
				if q.hasFlight {
					q.flightSkips++
				}
				q.flightSlot = flightSample{
					seq:      end - end%q.flightEvery,
					enqNs:    r.enqNs,
					decodeNs: r.decodeNs,
					waitNs:   wait,
				}
				q.hasFlight = true
			}
		}
		seq += uint64(r.n)
	}
	return k, nil
}

// takeArrivals hands the scoring goroutine the runs popped since the
// previous call — each event's arrival time, by run — for E2E observation
// at a window decision. The returned slice is only valid until the next
// ReadBatch; observe it immediately.
func (q *eventQueue) takeArrivals() []run {
	a := q.pending
	q.pending = q.pending[:0]
	return a
}

// takeFlight returns the most recent flight-sampled pop since the
// previous call, if any, plus how many earlier samples were overwritten
// before their window's decision (skipped). Consumer-side only, like
// takeArrivals.
func (q *eventQueue) takeFlight() (m flightSample, skipped int, ok bool) {
	skipped = q.flightSkips
	q.flightSkips = 0
	if !q.hasFlight {
		return flightSample{}, skipped, false
	}
	q.hasFlight = false
	return q.flightSlot, skipped, true
}

// EventBytes reports the received events' encoded size, the header left
// out.
func (q *eventQueue) EventBytes() int64 { return q.evBytes.Load() }

// LastTimes reports the obs.Now timestamps of the most recent enqueue and
// dequeue, for the stall watchdog.
func (q *eventQueue) LastTimes() (pushNs, popNs int64) {
	return q.lastPushNs.Load(), q.lastPopNs.Load()
}

// QueueCounters is one consistent observation of a queue's books.
type QueueCounters struct {
	Ingested int64
	Scored   int64
	Dropped  int64
	Depth    int
}

// Counters returns the queue's books as one atomic observation: at every
// instant Ingested == Scored + Dropped + Depth.
func (q *eventQueue) Counters() QueueCounters {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueCounters{Ingested: q.ingested, Scored: q.scored, Dropped: q.dropped, Depth: q.n}
}
