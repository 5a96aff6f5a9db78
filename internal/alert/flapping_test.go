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
// balanced (fired + resolved == delivered + rate_limited + queue_dropped +
// errors), double Close idempotent, sink closed exactly once.
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

// TestFlappingHysteresis: per stream — MinTrips-1 trips then a clear
// (must NOT fire), MinTrips trips (fires exactly on the last), extra trips
// (no re-fire), a clear at ClearAfter-1ns (no resolve), a clear at
// ClearAfter (resolves once). Every transition reaches the sink.
func TestFlappingHysteresis(t *testing.T) {
	const (
		nStreams   = 4
		minTrips   = 3
		clearAfter = 30 * time.Second
	)
	clk := newFakeClock(selftestEpoch)
	sink := newCaptureSink("capture")

	// The transition hook observes every state-machine edge before rate
	// limiting — the exactly-once ledger.
	var hookMu sync.Mutex
	transitions := make(map[string][]Notification)
	p := NewPipeline(Options{
		MinTrips:   minTrips,
		ClearAfter: clearAfter,
		Sinks:      []Sink{sink},
		Clock:      clk.now,
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
	fireResolveOnce := func(s *Stream, dist float64) {
		// Almost-armed: MinTrips-1 trips, then a clear — must disarm.
		for i := 0; i < minTrips-1; i++ {
			idx++
			trip(s, dist, idx)
		}
		expect(t, s.State() == StatePending, "%s: after %d trips state %v, want pending", s.Stream(), minTrips-1, s.State())
		clk.advance(time.Second)
		idx++
		clear(s, idx)
		expect(t, s.Fired() == 0, "%s: fired after disarm = %d, want 0", s.Stream(), s.Fired())
		expect(t, s.State() == StateIdle, "%s: state after disarm = %v, want idle", s.Stream(), s.State())

		// Arm for real: fires exactly on the MinTrips-th trip.
		for i := 0; i < minTrips; i++ {
			expect(t, s.Fired() == 0, "%s: fired before trip %d = %d, want 0", s.Stream(), i+1, s.Fired())
			idx++
			trip(s, dist, idx)
		}
		fireIdx := idx
		expect(t, s.Fired() == 1, "%s: fired after %d trips = %d, want 1", s.Stream(), minTrips, s.Fired())
		expect(t, s.State() == StateFiring, "%s: state after firing = %v", s.Stream(), s.State())

		// Extra trips while firing: no re-fire.
		for i := 0; i < 2; i++ {
			idx++
			trip(s, dist, idx)
		}
		expect(t, s.Fired() == 1, "%s: fired after extra trips = %d, want 1", s.Stream(), s.Fired())

		// A clear one nanosecond short of ClearAfter must not resolve...
		clk.advance(clearAfter - time.Nanosecond)
		idx++
		clear(s, idx)
		expect(t, s.State() == StateFiring, "%s: resolved %v early before ClearAfter", s.Stream(), clearAfter)
		expect(t, s.Resolved() == 0, "%s: resolved early = %d, want 0", s.Stream(), s.Resolved())

		// ...and at exactly ClearAfter it resolves, once.
		clk.advance(time.Nanosecond)
		idx++
		clear(s, idx)
		expect(t, s.Resolved() == 1, "%s: resolved = %d, want 1", s.Stream(), s.Resolved())
		expect(t, s.State() == StateResolved, "%s: state after resolve = %v", s.Stream(), s.State())
		idx++
		clear(s, idx) // further clears are the fast path: no double resolve
		expect(t, s.Resolved() == 1, "%s: double resolve: %d", s.Stream(), s.Resolved())

		// The firing transition carries the arming evidence.
		hookMu.Lock()
		seq := transitions[s.Stream()]
		hookMu.Unlock()
		if expect(t, len(seq) == 2, "%s: %d transitions, want 2", s.Stream(), len(seq)) {
			firing, resolved := seq[0], seq[1]
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

	// Every stream runs the full trip/clear/trip choreography.
	for i, s := range streams {
		fireResolveOnce(s, 1.0+float64(i))
	}

	// Admin view before the streams go away.
	snap := p.Snapshot()
	expect(t, p.FiringStreams() == 0, "%d streams still firing", p.FiringStreams())
	expect(t, len(snap.Streams) == nStreams, "snapshot lists %d streams, want %d", len(snap.Streams), nStreams)
	for _, st := range snap.Streams {
		expect(t, st.State == "resolved", "snapshot stream %s state %q, want resolved", st.Stream, st.State)
	}
	expect(t, len(snap.Recent) == 2*nStreams, "%d recent notifications, want %d", len(snap.Recent), 2*nStreams)

	// Closing a resolved stream emits nothing further.
	for _, s := range streams {
		s.Close()
	}

	books := drainAndClose(t, p, sink)
	expect(t, books.Fired == nStreams, "books fired %d, want %d", books.Fired, int64(nStreams))
	expect(t, books.Resolved == nStreams, "books resolved %d, want %d", books.Resolved, int64(nStreams))
	expect(t, books.RateLimited() == 0, "books rate-limited %d, want 0", books.RateLimited())
	const wantDelivered = 2 * nStreams
	expect(t, books.Enqueued == wantDelivered, "books enqueued %d, want %d", books.Enqueued, int64(wantDelivered))
	expect(t, sink.delivered() == wantDelivered, "sink saw %d, want %d", sink.delivered(), wantDelivered)
}

// TestFlappingReFireDeliversEveryTransition: one stream at the shipped
// defaults (MinTrips 3, ClearAfter 30s, 40 ms windows, one gate distance
// throughout) fires, resolves, and five minutes later fires and resolves
// again. The receiver must see all four edges, each resolved carrying the
// firing it closes; a sink that saw the second firing but not its
// resolution would show the incident open forever.
func TestFlappingReFireDeliversEveryTransition(t *testing.T) {
	const window = 40 * time.Millisecond
	clk := newFakeClock(selftestEpoch)
	sink := newCaptureSink("capture")
	p := NewPipeline(Options{Sinks: []Sink{sink}, Clock: clk.now})
	s := p.Register("refire-0", "selftest")

	idx := 0
	observe := func(at time.Duration, anomalous bool) {
		clk.ns.Store(selftestEpoch.Add(at).UnixNano())
		idx++
		s.Observe(Observation{Anomalous: anomalous, GateTripped: anomalous, GateDist: 1.5, LOF: 2.5, WindowIndex: idx})
	}
	// incident trips three windows from start (firing on the third), trips
	// once more hold later, and resolves ClearAfter after that last trip.
	incident := func(start, hold time.Duration) {
		for i := 1; i <= 3; i++ {
			observe(start+time.Duration(i)*window, true)
		}
		last := start + 3*window + hold
		observe(last, true)
		observe(last+window, false) // quiet, but too soon
		observe(last+30*time.Second, false)
	}
	incident(0, 30*time.Second)                                   // firing at 0.12 s, resolved at 1 m 0.12 s
	incident(5*time.Minute+5120*time.Millisecond, 10*time.Second) // firing at 5 m 5.24 s, resolved at 5 m 45.24 s
	expect(t, s.State() == StateResolved, "state %v, want resolved", s.State())
	s.Close()

	books := drainAndClose(t, p, sink)
	expect(t, books.Fired == 2 && books.Resolved == 2, "books fired/resolved %d/%d, want 2/2", books.Fired, books.Resolved)
	expect(t, books.Enqueued == 4, "books enqueued %d, want 4", books.Enqueued)
	sink.mu.Lock()
	notes := append([]Notification(nil), sink.notes...)
	sink.mu.Unlock()
	want := []struct {
		kind Kind
		at   time.Duration
	}{
		{KindFiring, 120 * time.Millisecond},
		{KindResolved, time.Minute + 120*time.Millisecond},
		{KindFiring, 5*time.Minute + 5240*time.Millisecond},
		{KindResolved, 5*time.Minute + 45240*time.Millisecond},
	}
	if !expect(t, len(notes) == len(want), "sink saw %d notifications, want %d: %+v", len(notes), len(want), notes) {
		return
	}
	for i, n := range notes {
		expect(t, n.Kind == want[i].kind && n.Wall.Equal(selftestEpoch.Add(want[i].at)),
			"notification %d is %v at %v, want %v at %v", i, n.Kind, n.Wall.Sub(selftestEpoch), want[i].kind, want[i].at)
		if n.Kind == KindResolved && i > 0 {
			expect(t, n.FiredWall.Equal(notes[i-1].Wall), "resolved %d fired_wall %v, want the firing's wall %v",
				i, n.FiredWall, notes[i-1].Wall)
		}
	}
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
