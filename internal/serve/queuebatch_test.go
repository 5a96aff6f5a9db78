package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
)

// evEq reports whether two events are equal, payloads included.
func evEq(a, b trace.Event) bool {
	return a.TS == b.TS && a.Type == b.Type && a.Arg == b.Arg && bytes.Equal(a.Payload, b.Payload)
}

// refQueue is the per-event reference model of the instrumented queue:
// one metadata record per queued event, one histogram observation per
// event, the flight slot updated event by event — what eventQueue did
// before its instrumentation rode as runs.
type refQueue struct {
	capacity    int
	flightEvery uint64
	evs         []refEvent // FIFO
	ingested    int64
	scored      int64
	dropped     int64
	pending     []int64 // enqueue times popped since the last decision
	slot        flightSample
	hasFlight   bool
	skips       int
	pipe        obs.Pipeline
}

type refEvent struct {
	ev              trace.Event
	enqNs, decodeNs int64
	seq             uint64
}

// push admits evs one by one; a full queue evicts its oldest event (the
// test never overfills a Block queue).
func (r *refQueue) push(evs []trace.Event, enqNs, decodeNs int64) {
	for _, ev := range evs {
		r.pipe.Decode.ObserveNs(decodeNs)
		if len(r.evs) == r.capacity {
			r.evs = r.evs[1:]
			r.dropped++
		}
		r.ingested++
		r.evs = append(r.evs, refEvent{ev: ev, enqNs: enqNs, decodeNs: decodeNs, seq: uint64(r.ingested)})
	}
}

func (r *refQueue) pop(k int, now int64) []trace.Event {
	k = min(k, len(r.evs))
	out := make([]trace.Event, k)
	for i, e := range r.evs[:k] {
		out[i] = e.ev
		wait := now - e.enqNs
		r.pipe.QueueWait.ObserveNs(wait)
		r.pending = append(r.pending, e.enqNs)
		if r.flightEvery > 0 && e.seq%r.flightEvery == 0 {
			if r.hasFlight {
				r.skips++
			}
			r.slot = flightSample{seq: e.seq, enqNs: e.enqNs, decodeNs: e.decodeNs, waitNs: wait}
			r.hasFlight = true
		}
	}
	r.evs = r.evs[k:]
	r.scored += int64(k)
	return out
}

func (r *refQueue) decide(now int64) (flightSample, int, bool) {
	for _, enq := range r.pending {
		r.pipe.E2E.ObserveNs(now - enq)
	}
	r.pending = r.pending[:0]
	m, skipped, ok := r.slot, r.skips, r.hasFlight
	r.skips, r.hasFlight = 0, false
	if !ok {
		m = flightSample{}
	}
	return m, skipped, ok
}

func snapshotsEqual(a, b obs.Snapshot) bool {
	if a.SumNs != b.SumNs {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

// TestRunRingMatchesPerEventModel drives the run-ring queue and the
// per-event reference with one random schedule of push sizes, pop sizes
// and decisions, under both policies and several flight intervals. After
// every step the two must agree on the events popped, the books, every
// bin and sum of the Decode, QueueWait and E2E histograms, and each
// decision's flight sample and skip count. Every schedule opens with two
// small runs and a push that evicts across their boundary (DropOldest),
// and pushes batches larger than the queue.
func TestRunRingMatchesPerEventModel(t *testing.T) {
	const capacity = 32
	pushSizes := []int{1, 1, 2, 5, 17, 31, 32, 33, 100}
	popSizes := []int{1, 1, 3, 16, 64}
	for _, policy := range []Backpressure{Block, DropOldest} {
		for _, every := range []uint64{0, 1, 3, 8, 50} {
			rng := rand.New(rand.NewSource(int64(every)*2 + int64(policy)))
			var pipe obs.Pipeline
			q := newEventQueue(capacity, policy, &pipe, every)
			ref := &refQueue{capacity: capacity, flightEvery: every}
			var next uint64 // events made so far
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%v, every %d, after %d events: %s", policy, every, next, fmt.Sprintf(format, args...))
			}

			push := func(n int) {
				if policy == Block { // single goroutine: never wait for room
					n = min(n, capacity-len(ref.evs))
				}
				evs := make([]trace.Event, n)
				for i := range evs {
					next++
					evs[i] = trace.Event{TS: time.Duration(next), Arg: next}
				}
				enq, share := obs.Now(), int64(rng.Intn(5000))
				pipe.Decode.ObserveN(share, n) // as the ingest loop does
				if !q.PushBatch(evs, enq, share) {
					fail("PushBatch returned false on an open queue")
				}
				ref.push(evs, enq, share)
			}
			pop := func(k int) {
				if len(ref.evs) == 0 {
					return // an open empty queue would block
				}
				dst := make([]trace.Event, k)
				n, err := q.ReadBatch(dst)
				if err != nil {
					fail("pop: %v", err)
				}
				_, now := q.LastTimes() // the pop time the queue measured waits against
				want := ref.pop(k, now)
				if n != len(want) {
					fail("popped %d events, reference %d", n, len(want))
				}
				for i := range want {
					if !evEq(dst[i], want[i]) {
						fail("popped event %d is %+v, reference %+v", i, dst[i], want[i])
					}
				}
			}
			decide := func() {
				now := obs.Now()
				for _, a := range q.takeArrivals() { // as the decision callback does
					pipe.E2E.ObserveN(now-a.enqNs, a.n)
				}
				m, skipped, ok := q.takeFlight()
				wm, wskipped, wok := ref.decide(now)
				if m != wm || skipped != wskipped || ok != wok {
					fail("flight: sample %+v skipped %d ok %v, reference %+v / %d / %v",
						m, skipped, ok, wm, wskipped, wok)
				}
			}
			check := func() {
				c := q.Counters()
				if c.Ingested != c.Scored+c.Dropped+int64(c.Depth) {
					fail("books do not balance: %+v", c)
				}
				if c.Ingested != ref.ingested || c.Scored != ref.scored || c.Dropped != ref.dropped || c.Depth != len(ref.evs) {
					fail("books %+v, reference ingested %d scored %d dropped %d depth %d",
						c, ref.ingested, ref.scored, ref.dropped, len(ref.evs))
				}
				got := pipe.Snapshot()
				want := ref.pipe.Snapshot()
				if !snapshotsEqual(got.Decode, want.Decode) || !snapshotsEqual(got.QueueWait, want.QueueWait) ||
					!snapshotsEqual(got.E2E, want.E2E) {
					fail("stage histograms differ from the per-event reference")
				}
			}

			for _, n := range []int{3, 4, 30} { // the third evicts 5: all of run one, half of run two
				push(n)
				check()
			}
			for step := 0; step < 1500; step++ {
				switch rng.Intn(5) {
				case 0, 1:
					push(pushSizes[rng.Intn(len(pushSizes))])
				case 2, 3:
					pop(popSizes[rng.Intn(len(popSizes))])
				default:
					decide()
				}
				check()
			}
			q.Close()
			for len(ref.evs) > 0 {
				pop(7)
			}
			decide()
			check()
			if _, err := pop1(q); err != io.EOF {
				fail("drained queue returned %v, want EOF", err)
			}
			if got := pipe.E2E.Snapshot().Count(); got != uint64(ref.scored) {
				fail("E2E _count %d, scored %d", got, ref.scored)
			}
		}
	}
}

// TestE2ECountSurvivesPendingCap: a window that outlives the arrival
// buffer's cap — more separately arrived runs than it holds, with no
// decision in between — still yields E2E _count == events scored.
func TestE2ECountSurvivesPendingCap(t *testing.T) {
	const total = pendingCap + 1000
	var pipe obs.Pipeline
	q := newEventQueue(8, Block, &pipe, 0)
	evs := []trace.Event{{TS: 1}}
	for i := 0; i < total; i++ {
		q.PushBatch(evs, int64(i+1), 0) // distinct arrival times: nothing merges
		if _, err := pop1(q); err != nil {
			t.Fatal(err)
		}
	}
	arr := q.takeArrivals()
	if len(arr) != pendingCap {
		t.Fatalf("%d pending entries, want the cap %d", len(arr), pendingCap)
	}
	now := obs.Now()
	for _, a := range arr {
		pipe.E2E.ObserveN(now-a.enqNs, a.n)
	}
	if got, scored := pipe.E2E.Snapshot().Count(), q.Counters().Scored; got != total || scored != total {
		t.Fatalf("E2E _count %d, scored %d, want both %d", got, scored, total)
	}
}

// TestPushBatchDropOldestBooks: a batch wider than a DropOldest queue must
// evict exactly the surplus, keep the newest events in order, and balance.
func TestPushBatchDropOldestBooks(t *testing.T) {
	const capacity, n = 8, 20
	q := newEventQueue(capacity, DropOldest, &obs.Pipeline{}, 0)
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{TS: time.Duration(i + 1)}
	}
	q.PushBatch(evs, 0, 0)
	c := q.Counters()
	if c.Ingested != n || c.Dropped != n-capacity || c.Depth != capacity {
		t.Fatalf("books after wide batch: %+v (want ingested %d, dropped %d, depth %d)",
			c, n, n-capacity, capacity)
	}
	q.Close()
	for i := 0; i < capacity; i++ {
		ev, err := pop1(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := evs[n-capacity+i]; !evEq(ev, want) {
			t.Fatalf("survivor %d is %+v, want %+v", i, ev, want)
		}
	}
	if _, err := pop1(q); err != io.EOF {
		t.Fatalf("drained queue returned %v, want EOF", err)
	}
}

// TestPushBatchBlockLargerThanCapacity: under Block a batch wider than the
// queue is admitted in chunks against a concurrent ReadBatch consumer —
// nothing dropped, nothing reordered, no deadlock.
func TestPushBatchBlockLargerThanCapacity(t *testing.T) {
	const capacity, n = 8, 1000
	q := newEventQueue(capacity, Block, &obs.Pipeline{}, 0)
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{TS: time.Duration(i + 1), Arg: uint64(i)}
	}
	got := make(chan []trace.Event)
	go func() {
		var out []trace.Event
		dst := make([]trace.Event, 16)
		for {
			k, err := q.ReadBatch(dst)
			out = append(out, dst[:k]...)
			if err == io.EOF {
				got <- out
				return
			}
		}
	}()
	if !q.PushBatch(evs, 0, 0) {
		t.Fatal("PushBatch returned false on an open queue")
	}
	q.Close()
	out := <-got
	if len(out) != n {
		t.Fatalf("consumer saw %d events, want %d", len(out), n)
	}
	for i := range out {
		if !evEq(out[i], evs[i]) {
			t.Fatalf("event %d is %+v, want %+v", i, out[i], evs[i])
		}
	}
	c := q.Counters()
	if c.Dropped != 0 || c.Scored != n || c.Ingested != n {
		t.Fatalf("block batch books: %+v", c)
	}
}

// TestPushBatchReadBatchCountersConsistentUnderRace is the batched twin of
// the drop-accounting audit: a producer pushing batches into a tiny
// DropOldest queue, a consumer draining it batch-wise, and observers
// snapshotting the books concurrently. Every observation must satisfy
// ingested == scored + dropped + depth, and the final totals must balance.
func TestPushBatchReadBatchCountersConsistentUnderRace(t *testing.T) {
	const batches, perBatch = 500, 64
	q := newEventQueue(16, DropOldest, &obs.Pipeline{}, 4)

	var wg sync.WaitGroup
	stopObs := make(chan struct{})
	for o := 0; o < 4; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopObs:
					return
				default:
				}
				c := q.Counters()
				if c.Ingested != c.Scored+c.Dropped+int64(c.Depth) {
					t.Errorf("inconsistent books: %+v", c)
					return
				}
			}
		}()
	}

	var consumed int64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		dst := make([]trace.Event, 32)
		for {
			k, err := q.ReadBatch(dst)
			consumed += int64(k)
			q.takeArrivals()
			q.takeFlight()
			if err == io.EOF {
				return
			}
		}
	}()

	evs := make([]trace.Event, perBatch)
	for b := 0; b < batches; b++ {
		for i := range evs {
			evs[i] = trace.Event{TS: time.Duration(b*perBatch + i + 1)}
		}
		if !q.PushBatch(evs, obs.Now(), 1) {
			t.Error("queue closed under the producer")
			break
		}
	}
	q.Close()
	<-consumerDone
	close(stopObs)
	wg.Wait()

	final := q.Counters()
	if final.Ingested != batches*perBatch {
		t.Fatalf("ingested %d, want %d", final.Ingested, batches*perBatch)
	}
	if final.Depth != 0 {
		t.Fatalf("depth %d after drain, want 0", final.Depth)
	}
	if final.Scored != consumed {
		t.Fatalf("scored counter %d != %d events the consumer saw", final.Scored, consumed)
	}
	if final.Scored+final.Dropped != final.Ingested {
		t.Fatalf("final books do not balance: %+v", final)
	}
}

// TestQueueBatchZeroAllocSteadyState: once warm, a PushBatch/ReadBatch
// round trip allocates nothing — the run ring, the pop scratch and the
// pending arrivals all reuse their buffers.
func TestQueueBatchZeroAllocSteadyState(t *testing.T) {
	const batch = 128
	q := newEventQueue(1024, Block, &obs.Pipeline{}, 16)
	evs := make([]trace.Event, batch)
	for i := range evs {
		evs[i] = trace.Event{TS: time.Duration(i + 1)}
	}
	dst := make([]trace.Event, batch)
	round := func() {
		q.PushBatch(evs, obs.Now(), 1)
		for popped := 0; popped < batch; {
			k, err := q.ReadBatch(dst)
			if err != nil {
				t.Fatal(err)
			}
			popped += k
		}
		q.takeArrivals()
		q.takeFlight()
	}
	round() // warm the pop scratch and pending buffers
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("steady-state batch round trip allocates %.1f times, want 0", avg)
	}
}
