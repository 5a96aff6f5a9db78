package serve

import (
	"io"
	"sync"
	"testing"
	"time"

	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
)

// push1 enqueues one event: a PushBatch of one.
func push1(q *eventQueue, ev trace.Event) bool {
	return q.PushBatch([]trace.Event{ev}, obs.Now(), 0)
}

// pop1 is a ReadBatch of one.
func pop1(q *eventQueue) (trace.Event, error) {
	var one [1]trace.Event
	_, err := q.ReadBatch(one[:])
	return one[0], err
}

// TestEventQueueCountersConsistentUnderRace is the drop-accounting audit
// regression test (run under -race in CI): with a producer hammering a
// tiny DropOldest queue, a consumer draining it, and observers snapshotting
// the books concurrently, every observation must satisfy
//
//	ingested == scored + dropped + depth
//
// and the final totals must balance exactly. The original code bumped the
// scored counter after releasing the queue mutex, so observers could catch
// events that had left the buffer without being counted anywhere —
// transiently over-reporting drops relative to the scored totals.
func TestEventQueueCountersConsistentUnderRace(t *testing.T) {
	const nEvents = 50_000
	q := newEventQueue(16, DropOldest, &obs.Pipeline{}, 0)

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
					t.Errorf("inconsistent books: ingested %d != scored %d + dropped %d + depth %d",
						c.Ingested, c.Scored, c.Dropped, c.Depth)
					return
				}
			}
		}()
	}

	var consumed int64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			_, err := pop1(q)
			if err == io.EOF {
				return
			}
			consumed++
		}
	}()

	for i := 0; i < nEvents; i++ {
		if !push1(q, trace.Event{TS: time.Duration(i), Type: 1}) {
			t.Error("queue closed under the producer")
			break
		}
	}
	q.Close()
	<-consumerDone
	close(stopObs)
	wg.Wait()

	final := q.Counters()
	if final.Ingested != nEvents {
		t.Fatalf("ingested %d, want %d", final.Ingested, nEvents)
	}
	if final.Depth != 0 {
		t.Fatalf("depth %d after drain, want 0", final.Depth)
	}
	if final.Scored != consumed {
		t.Fatalf("scored counter %d != %d events the consumer saw", final.Scored, consumed)
	}
	if final.Scored+final.Dropped != nEvents {
		t.Fatalf("final books do not balance: scored %d + dropped %d != %d ingested",
			final.Scored, final.Dropped, nEvents)
	}
	t.Logf("final books: %d scored + %d dropped == %d ingested", final.Scored, final.Dropped, nEvents)
}

// TestEventQueueBlockPolicyNeverDrops: under Block the same harness must
// end with zero drops and every event scored.
func TestEventQueueBlockPolicyNeverDrops(t *testing.T) {
	const nEvents = 20_000
	q := newEventQueue(8, Block, &obs.Pipeline{}, 0)
	done := make(chan int64)
	go func() {
		var n int64
		for {
			if _, err := pop1(q); err == io.EOF {
				done <- n
				return
			}
			n++
		}
	}()
	for i := 0; i < nEvents; i++ {
		if !push1(q, trace.Event{TS: time.Duration(i)}) {
			t.Fatal("queue closed under the producer")
		}
	}
	q.Close()
	got := <-done
	c := q.Counters()
	if got != nEvents || c.Scored != nEvents || c.Dropped != 0 {
		t.Fatalf("block policy books: consumer %d, scored %d, dropped %d (want %d/%d/0)",
			got, c.Scored, c.Dropped, nEvents, nEvents)
	}
}
