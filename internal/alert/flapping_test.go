package alert

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a concurrency-safe manual clock (the dispatcher goroutine
// reads it while the test advances it).
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock(start time.Time) *fakeClock {
	c := &fakeClock{}
	c.ns.Store(start.UnixNano())
	return c
}

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()).UTC() }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// captureSink records every delivered notification.
type captureSink struct {
	name string

	mu     sync.Mutex
	notes  []Notification
	closed int
}

func newCaptureSink(name string) *captureSink { return &captureSink{name: name} }

func (c *captureSink) Name() string { return c.name }

func (c *captureSink) Deliver(_ context.Context, n Notification) error {
	c.mu.Lock()
	c.notes = append(c.notes, n)
	c.mu.Unlock()
	return nil
}

func (c *captureSink) Close() error {
	c.mu.Lock()
	c.closed++
	c.mu.Unlock()
	return nil
}

func (c *captureSink) delivered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.notes)
}

func (c *captureSink) closes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// selftestEpoch anchors the fake clocks (any fixed instant works; a real
// date keeps rendered notifications legible).
var selftestEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// expect reports a failure without stopping the test, so one run shows
// every broken invariant; it returns ok so a caller can guard what follows.
func expect(t *testing.T, ok bool, format string, args ...any) bool {
	t.Helper()
	if !ok {
		t.Errorf(format, args...)
	}
	return ok
}

// drainAndClose is every flapping test's epilogue: queue drained, books
// balanced (fired == delivered + deduped + rate_limited + errors), double
// Close idempotent, sink closed exactly once.
func drainAndClose(t *testing.T, p *Pipeline, sinks ...*captureSink) Books {
	t.Helper()
	expect(t, p.Drain(5*time.Second), "dispatch queue did not drain")
	books := p.Books()
	if err := books.Balanced(); err != nil {
		t.Error(err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	for _, s := range sinks {
		expect(t, s.closes() == 1, "sink %s closed %d times, want exactly 1", s.Name(), s.closes())
	}
	return books
}

// TestFlappingHysteresisAndDedup: per stream — MinTrips-1 trips then a
// clear (must NOT fire), MinTrips trips (fires exactly on the last), extra
// trips (no re-fire), a clear at ClearAfter-1ns (no resolve), a clear at
// ClearAfter (resolves once). Then one stream re-fires with the same gate
// distance and both its transitions dedup.
func TestFlappingHysteresisAndDedup(t *testing.T) {
	const (
		nStreams   = 4
		minTrips   = 3
		clearAfter = 30 * time.Second
	)
	clk := newFakeClock(selftestEpoch)
	sink := newCaptureSink("capture")

	// The transition hook observes every state-machine edge before dedup
	// and rate limiting — the exactly-once ledger.
	var hookMu sync.Mutex
	transitions := make(map[string][]Notification)
	p := NewPipeline(Options{
		MinTrips:     minTrips,
		ClearAfter:   clearAfter,
		DedupTTL:     time.Hour, // covers the whole choreography
		DedupQuantum: 0.01,
		Sinks:        []Sink{sink},
		Clock:        clk.now,
	})
	p.SetTransitionHook(func(n Notification) {
		hookMu.Lock()
		transitions[n.Stream] = append(transitions[n.Stream], n)
		hookMu.Unlock()
	})

	trip := func(s *Stream, dist float64, idx int) {
		clk.advance(time.Second)
		s.Observe(Observation{Anomalous: true, GateTripped: true, GateDist: dist, LOF: 2.5, WindowIndex: idx})
	}
	clear := func(s *Stream, idx int) {
		s.Observe(Observation{GateDist: 0.1, LOF: 1.0, WindowIndex: idx})
	}

	streams := make([]*Stream, nStreams)
	for i := range streams {
		streams[i] = p.Register(fmt.Sprintf("flap-%d", i), "selftest")
	}

	idx := 0
	fireResolveOnce := func(s *Stream, dist float64, wantFired, wantResolved int64) {
		// Almost-armed: MinTrips-1 trips, then a clear — must disarm.
		for i := 0; i < minTrips-1; i++ {
			idx++
			trip(s, dist, idx)
		}
		expect(t, s.State() == StatePending, "%s: after %d trips state %v, want pending", s.Stream(), minTrips-1, s.State())
		clk.advance(time.Second)
		idx++
		clear(s, idx)
		expect(t, s.Fired() == wantFired-1, "%s: fired after disarm = %d, want %d", s.Stream(), s.Fired(), wantFired-1)
		expect(t, s.State() != StateFiring && s.State() != StatePending,
			"%s: state after disarm = %v, want idle/resolved", s.Stream(), s.State())

		// Arm for real: fires exactly on the MinTrips-th trip.
		for i := 0; i < minTrips; i++ {
			expect(t, s.Fired() == wantFired-1, "%s: fired before trip %d = %d, want %d", s.Stream(), i+1, s.Fired(), wantFired-1)
			idx++
			trip(s, dist, idx)
		}
		fireIdx := idx
		expect(t, s.Fired() == wantFired, "%s: fired after %d trips = %d, want %d", s.Stream(), minTrips, s.Fired(), wantFired)
		expect(t, s.State() == StateFiring, "%s: state after firing = %v", s.Stream(), s.State())

		// Extra trips while firing: no re-fire.
		for i := 0; i < 2; i++ {
			idx++
			trip(s, dist, idx)
		}
		expect(t, s.Fired() == wantFired, "%s: fired after extra trips = %d, want %d", s.Stream(), s.Fired(), wantFired)

		// A clear one nanosecond short of ClearAfter must not resolve...
		clk.advance(clearAfter - time.Nanosecond)
		idx++
		clear(s, idx)
		expect(t, s.State() == StateFiring, "%s: resolved %v early before ClearAfter", s.Stream(), clearAfter)
		expect(t, s.Resolved() == wantResolved-1, "%s: resolved early = %d, want %d", s.Stream(), s.Resolved(), wantResolved-1)

		// ...and at exactly ClearAfter it resolves, once.
		clk.advance(time.Nanosecond)
		idx++
		clear(s, idx)
		expect(t, s.Resolved() == wantResolved, "%s: resolved = %d, want %d", s.Stream(), s.Resolved(), wantResolved)
		expect(t, s.State() == StateResolved, "%s: state after resolve = %v", s.Stream(), s.State())
		idx++
		clear(s, idx) // further clears are the fast path: no double resolve
		expect(t, s.Resolved() == wantResolved, "%s: double resolve: %d", s.Stream(), s.Resolved())

		// The firing transition carries the arming evidence.
		hookMu.Lock()
		seq := transitions[s.Stream()]
		hookMu.Unlock()
		want := 2 * int(wantFired)
		if expect(t, len(seq) == want, "%s: %d transitions, want %d", s.Stream(), len(seq), want) {
			firing, resolved := seq[want-2], seq[want-1]
			expect(t, firing.Kind == KindFiring && resolved.Kind == KindResolved,
				"%s: transition kinds %v/%v, want firing/resolved", s.Stream(), firing.Kind, resolved.Kind)
			expect(t, firing.Trips == minTrips, "%s: firing trips %d, want %d", s.Stream(), firing.Trips, minTrips)
			expect(t, firing.WindowIndex == fireIdx, "%s: firing window %d, want %d", s.Stream(), firing.WindowIndex, fireIdx)
			expect(t, firing.GateDist == dist, "%s: firing dist %g, want %g", s.Stream(), firing.GateDist, dist)
			expect(t, resolved.DurationS > 0, "%s: resolved duration %g, want > 0", s.Stream(), resolved.DurationS)
			expect(t, resolved.FiredWall.Equal(firing.Wall), "%s: resolved fired_wall %v != firing wall %v",
				s.Stream(), resolved.FiredWall, firing.Wall)
		}
	}

	// Every stream runs the full trip/clear/trip choreography with a
	// stream-unique gate distance (no cross-stream dedup).
	for i, s := range streams {
		fireResolveOnce(s, 1.0+float64(i), 1, 1)
	}

	// Resolved → pending → re-fire on stream 0 with the SAME gate
	// distance: both transitions hit the dedup set (exact re-notification
	// within the TTL), yet the state machine still counts the incident.
	fireResolveOnce(streams[0], 1.0, 2, 2)

	// Admin view before the streams go away.
	snap := p.Snapshot()
	expect(t, p.FiringStreams() == 0, "%d streams still firing", p.FiringStreams())
	expect(t, len(snap.Streams) == nStreams, "snapshot lists %d streams, want %d", len(snap.Streams), nStreams)
	for _, st := range snap.Streams {
		expect(t, st.State == "resolved", "snapshot stream %s state %q, want resolved", st.Stream, st.State)
	}
	expect(t, len(snap.Recent) == 2*(nStreams+1), "%d recent notifications, want %d", len(snap.Recent), 2*(nStreams+1))

	// Closing a resolved stream emits nothing further.
	for _, s := range streams {
		s.Close()
	}

	books := drainAndClose(t, p, sink)
	wantFired := int64(nStreams + 1)
	expect(t, books.Fired == wantFired, "books fired %d, want %d", books.Fired, wantFired)
	expect(t, books.Resolved == wantFired, "books resolved %d, want %d", books.Resolved, wantFired)
	expect(t, books.Deduped == 2, "books deduped %d, want 2", books.Deduped)
	expect(t, books.RateLimited() == 0, "books rate-limited %d, want 0", books.RateLimited())
	wantDelivered := int64(2 * nStreams)
	expect(t, books.Enqueued == wantDelivered, "books enqueued %d, want %d", books.Enqueued, wantDelivered)
	expect(t, int64(sink.delivered()) == wantDelivered, "sink saw %d, want %d", sink.delivered(), wantDelivered)
}

// TestFlappingGlobalBudget: a fixed-budget global bucket (GlobalBurst
// tokens, no refill) admits exactly its burst of the generated
// transitions; the rest count rate-limited.
func TestFlappingGlobalBudget(t *testing.T) {
	const (
		budget     = 3
		incidents  = 8
		clearAfter = 10 * time.Second
	)
	clk := newFakeClock(selftestEpoch)
	sink := newCaptureSink("capture")
	p := NewPipeline(Options{
		MinTrips:    1,
		ClearAfter:  clearAfter,
		DedupTTL:    -1, // every transition is fresh: the bucket is the only gate
		GlobalRate:  0,
		GlobalBurst: budget,
		Sinks:       []Sink{sink},
		Clock:       clk.now,
	})
	s := p.Register("budget-0", "selftest")
	for i := 0; i < incidents; i++ {
		clk.advance(time.Second)
		s.Observe(Observation{Anomalous: true, GateDist: float64(i), LOF: 3, WindowIndex: 2 * i})
		clk.advance(clearAfter)
		s.Observe(Observation{GateDist: 0.1, LOF: 1, WindowIndex: 2*i + 1})
	}
	expect(t, s.Fired() == incidents, "fired %d, want %d", s.Fired(), int64(incidents))
	expect(t, s.Resolved() == incidents, "resolved %d, want %d", s.Resolved(), int64(incidents))
	s.Close()

	books := drainAndClose(t, p, sink)
	const transitions = 2 * incidents
	expect(t, books.Enqueued == budget, "enqueued %d, want %d", books.Enqueued, int64(budget))
	expect(t, books.RateLimitedGlobal == transitions-budget,
		"rate-limited %d, want %d", books.RateLimitedGlobal, int64(transitions-budget))
	expect(t, int64(sink.delivered()) == budget, "sink saw %d, want %d", sink.delivered(), int64(budget))
}

// TestFlappingSinkBudget: per-sink fixed budgets — each of two sinks
// delivers exactly its own allowance out of the shared queue; the
// overflow counts against the sink.
func TestFlappingSinkBudget(t *testing.T) {
	const (
		sinkBudget = 2
		incidents  = 3
		clearAfter = 10 * time.Second
	)
	clk := newFakeClock(selftestEpoch)
	a, b := newCaptureSink("capture-a"), newCaptureSink("capture-b")
	p := NewPipeline(Options{
		MinTrips:   1,
		ClearAfter: clearAfter,
		DedupTTL:   -1,
		SinkRate:   0,
		SinkBurst:  sinkBudget,
		Sinks:      []Sink{a, b},
		Clock:      clk.now,
	})
	s := p.Register("sinkbudget-0", "selftest")
	for i := 0; i < incidents; i++ {
		clk.advance(time.Second)
		s.Observe(Observation{Anomalous: true, GateDist: float64(i), LOF: 3, WindowIndex: 2 * i})
		clk.advance(clearAfter)
		s.Observe(Observation{GateDist: 0.1, LOF: 1, WindowIndex: 2*i + 1})
	}
	s.Close()

	books := drainAndClose(t, p, a, b)
	const transitions = 2 * incidents
	expect(t, books.Enqueued == transitions, "enqueued %d, want %d", books.Enqueued, int64(transitions))
	for _, sb := range books.Sinks {
		expect(t, sb.Delivered == sinkBudget, "sink %s delivered %d, want %d", sb.Name, sb.Delivered, int64(sinkBudget))
		expect(t, sb.RateLimited == transitions-sinkBudget,
			"sink %s rate-limited %d, want %d", sb.Name, sb.RateLimited, int64(transitions-sinkBudget))
	}
	expect(t, a.delivered() == sinkBudget && b.delivered() == sinkBudget,
		"captures saw %d/%d, want %d each", a.delivered(), b.delivered(), sinkBudget)
}
