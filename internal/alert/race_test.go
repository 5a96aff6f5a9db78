package alert

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enduratrace/internal/obs"
)

// TestConcurrentStreamsOneDispatcher is the race audit: many scoring
// goroutines drive their own streams into one pipeline while an admin
// goroutine reads snapshots and metrics-style counters without pausing.
// Run under -race; the books must balance when the dust settles. It runs
// once without a rate limit and once behind a refilling global bucket, so
// concurrent streams also share the bucket's state.
//
// The transition hook yields, as the store append it stands for blocks on
// I/O. Another goroutine then runs between a transition's write to the
// recent ring and its hand-off to the bucket and the dispatcher, which is
// where a write outside the lock would race.
func TestConcurrentStreamsOneDispatcher(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rate, burst float64
	}{
		{"unlimited", 0, 0},
		// The shared clock moves 1 ms per incident, 400 ms in all: the
		// bucket refills about 40 tokens over the run, far fewer than the
		// 800 transitions, so it both admits and refuses.
		{"global rate", 100, 10},
	} {
		t.Run(tc.name, func(t *testing.T) { concurrentStreams(t, tc.rate, tc.burst) })
	}
}

func concurrentStreams(t *testing.T, rate, burst float64) {
	const (
		nStreams  = 16
		incidents = 25
	)
	clk := newFakeClock(selftestEpoch)
	sink := newCaptureSink("capture")
	p := NewPipeline(Options{
		MinTrips:    2,
		ClearAfter:  time.Millisecond,
		GlobalRate:  rate,
		GlobalBurst: burst,
		Sinks:       []Sink{sink},
		Clock:       clk.now,
	})
	var hooked atomic.Int64
	p.SetTransitionHook(func(Notification) {
		hooked.Add(1)
		runtime.Gosched()
	})

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
				s.Observe(obs.Verdict{Anomalous: true, GateDist: float64(inc), LOF: 2, WindowIndex: 2 * inc})
				s.Observe(obs.Verdict{Anomalous: true, GateDist: float64(inc), LOF: 2, WindowIndex: 2 * inc})
				if s.State() != StateFiring {
					t.Errorf("stream %d incident %d did not fire", i, inc)
					return
				}
				for s.State() == StateFiring {
					clk.advance(time.Millisecond)
					s.Observe(obs.Verdict{GateDist: 0.1, LOF: 1})
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
	// The hook runs before rate limiting: it sees every transition.
	if got := hooked.Load(); got != 2*wantEach {
		t.Fatalf("transition hook saw %d transitions, want %d", got, 2*wantEach)
	}
	if rate > 0 && (b.RateLimitedGlobal == 0 || b.Enqueued == 0) {
		t.Fatalf("global bucket refused %d and admitted %d; want some of each", b.RateLimitedGlobal, b.Enqueued)
	}
	if rate == 0 && b.RateLimitedGlobal != 0 {
		t.Fatalf("unlimited pipeline rate-limited %d notifications", b.RateLimitedGlobal)
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
		s.Observe(obs.Verdict{Anomalous: true, GateDist: float64(i), LOF: 2})
		clk.advance(time.Second)
		s.Observe(obs.Verdict{})
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
