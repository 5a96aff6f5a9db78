package alert

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentStreamsOneDispatcher is the race audit: many scoring
// goroutines drive their own streams into one pipeline while an admin
// goroutine reads snapshots and metrics-style counters. Run under -race;
// the books must balance when the dust settles.
func TestConcurrentStreamsOneDispatcher(t *testing.T) {
	const (
		nStreams  = 16
		incidents = 25
	)
	clk := newFakeClock(selftestEpoch)
	sink := newCaptureSink("capture")
	p := NewPipeline(Options{
		MinTrips:   2,
		ClearAfter: time.Millisecond,
		Sinks:      []Sink{sink},
		Clock:      clk.now,
	})

	// An admin goroutine hammers the read surface concurrently (throttled
	// so it audits races without starving the workers).
	stopAdmin := make(chan struct{})
	var adminWG sync.WaitGroup
	adminWG.Add(1)
	go func() {
		defer adminWG.Done()
		for {
			select {
			case <-stopAdmin:
				return
			default:
				_ = p.Snapshot()
				_ = p.FiringStreams()
				_ = p.QueueDepth()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < nStreams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := p.Register(streamName(i), "race")
			for inc := 0; inc < incidents; inc++ {
				// Two trips arm and fire; clears until resolution. Every
				// goroutine advances the shared clock — concurrent clock
				// writers are part of the audit — and it only moves
				// forward, so the clear loop terminates.
				s.Observe(Observation{Anomalous: true, GateDist: float64(inc), LOF: 2, WindowIndex: 2 * inc})
				s.Observe(Observation{Anomalous: true, GateDist: float64(inc), LOF: 2, WindowIndex: 2 * inc})
				if s.State() != StateFiring {
					t.Errorf("stream %d incident %d did not fire", i, inc)
					return
				}
				for s.State() == StateFiring {
					clk.advance(time.Millisecond)
					s.Observe(Observation{GateDist: 0.1, LOF: 1})
				}
			}
			s.Close()
		}(i)
	}
	wg.Wait()
	close(stopAdmin)
	adminWG.Wait()

	if !p.Drain(10 * time.Second) {
		t.Fatal("queue did not drain")
	}
	b := p.Books()
	if err := b.Balanced(); err != nil {
		t.Fatal(err)
	}
	const wantEach = int64(nStreams * incidents)
	if b.Fired != wantEach || b.Resolved != wantEach {
		t.Fatalf("books fired/resolved = %d/%d, want %d/%d", b.Fired, b.Resolved, wantEach, wantEach)
	}
	// No rate limit, and the default queue is deep enough at this pace:
	// every transition must have reached the sink or been counted dropped.
	if got := b.Enqueued + b.QueueDropped; got != 2*wantEach {
		t.Fatalf("enqueued %d + dropped %d != %d transitions", b.Enqueued, b.QueueDropped, 2*wantEach)
	}
	if int64(sink.delivered()) != b.Enqueued {
		t.Fatalf("sink saw %d, books enqueued %d", sink.delivered(), b.Enqueued)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.closes() != 1 {
		t.Fatalf("sink closed %d times, want 1", sink.closes())
	}
}

func streamName(i int) string { return fmt.Sprintf("race-%d", i) }

// TestConcurrentCloseDrainsOnce: many goroutines race Close while the
// queue still holds work; the drain happens exactly once, every queued
// notification reaches the sink, and each caller gets the same error.
func TestConcurrentCloseDrainsOnce(t *testing.T) {
	clk := newFakeClock(selftestEpoch)
	slow := newCaptureSink("slow")
	gate := make(chan struct{})
	slowSink := &funcSink{
		name: "slow",
		deliver: func(ctx context.Context, n Notification) error {
			<-gate // hold the queue full until every closer is racing
			return slow.Deliver(ctx, n)
		},
		closeFn: slow.Close,
	}
	p := NewPipeline(Options{
		MinTrips: 1, ClearAfter: time.Millisecond,
		QueueLen: 64, Sinks: []Sink{slowSink}, Clock: clk.now,
	})
	s := p.Register("s0", "m0")
	const incidents = 8
	for i := 0; i < incidents; i++ {
		clk.advance(time.Second)
		s.Observe(Observation{Anomalous: true, GateDist: float64(i), LOF: 2})
		clk.advance(time.Second)
		s.Observe(Observation{})
	}
	s.Close()
	enqueued := p.Books().Enqueued

	const closers = 8
	errs := make(chan error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- p.Close()
		}()
	}
	close(gate) // let the worker drain while the closers race
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	if got := int64(slow.delivered()); got != enqueued {
		t.Fatalf("drained %d notifications, want %d", got, enqueued)
	}
	if slow.closes() != 1 {
		t.Fatalf("capture closed %d times, want exactly 1", slow.closes())
	}
	b := p.Books()
	if err := b.Balanced(); err != nil {
		t.Fatal(err)
	}
	// Enqueue after close: refused and counted, never a send-on-closed panic.
	if p.disp.enqueue(Notification{}) {
		t.Fatal("enqueue succeeded after close")
	}
}
