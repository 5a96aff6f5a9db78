package alert

import (
	"testing"
	"time"

	"enduratrace/internal/obs"
)

// newTestPipeline builds a hookless pipeline on a fake clock with no
// sinks — state-machine tests watch the stream counters and the books.
func newTestPipeline(t *testing.T, opts Options) (*Pipeline, *fakeClock) {
	t.Helper()
	clk := newFakeClock(selftestEpoch)
	opts.Clock = clk.now
	p := NewPipeline(opts)
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("pipeline close: %v", err)
		}
	})
	return p, clk
}

// step is one observed window in a choreography: advance the clock,
// observe trip/clear, expect a state and incident counts.
type step struct {
	advance      time.Duration
	trip         bool
	wantState    State
	wantFired    int64
	wantResolved int64
}

func runSteps(t *testing.T, clk *fakeClock, s *Stream, steps []step) {
	t.Helper()
	for i, st := range steps {
		if st.advance > 0 {
			clk.advance(st.advance)
		}
		s.Observe(obs.Verdict{
			Anomalous:   st.trip,
			GateTripped: st.trip,
			GateDist:    2.0,
			LOF:         2.0,
			WindowIndex: i,
		})
		if got := s.State(); got != st.wantState {
			t.Fatalf("step %d: state = %v, want %v", i, got, st.wantState)
		}
		if got := s.Fired(); got != st.wantFired {
			t.Fatalf("step %d: fired = %d, want %d", i, got, st.wantFired)
		}
		if got := s.Resolved(); got != st.wantResolved {
			t.Fatalf("step %d: resolved = %d, want %d", i, got, st.wantResolved)
		}
	}
}

func TestStateMachineTransitions(t *testing.T) {
	const clearAfter = 30 * time.Second
	sec := time.Second

	cases := []struct {
		name  string
		opts  Options
		steps []step
	}{
		{
			name: "fires exactly on the min-trips-th consecutive trip",
			opts: Options{MinTrips: 3, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StatePending, 0, 0},
				{sec, true, StatePending, 0, 0},
				{sec, true, StateFiring, 1, 0},
			},
		},
		{
			name: "one clear while pending disarms the count",
			opts: Options{MinTrips: 3, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StatePending, 0, 0},
				{sec, true, StatePending, 0, 0},
				{sec, false, StateIdle, 0, 0}, // hysteresis: back to zero
				{sec, true, StatePending, 0, 0},
				{sec, true, StatePending, 0, 0}, // trips restart, not resume
				{sec, true, StateFiring, 1, 0},
			},
		},
		{
			name: "min-trips one fires immediately",
			opts: Options{MinTrips: 1, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StateFiring, 1, 0},
			},
		},
		{
			name: "extra trips while firing do not re-fire",
			opts: Options{MinTrips: 2, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StatePending, 0, 0},
				{sec, true, StateFiring, 1, 0},
				{sec, true, StateFiring, 1, 0},
				{sec, true, StateFiring, 1, 0},
			},
		},
		{
			name: "clear one nanosecond before clear-after stays firing",
			opts: Options{MinTrips: 1, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StateFiring, 1, 0},
				{clearAfter - time.Nanosecond, false, StateFiring, 1, 0},
			},
		},
		{
			name: "clear at exactly clear-after resolves",
			opts: Options{MinTrips: 1, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StateFiring, 1, 0},
				{clearAfter, false, StateResolved, 1, 1},
			},
		},
		{
			name: "clear one window past clear-after resolves",
			opts: Options{MinTrips: 1, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StateFiring, 1, 0},
				{clearAfter - time.Nanosecond, false, StateFiring, 1, 0},
				{2 * time.Nanosecond, false, StateResolved, 1, 1},
			},
		},
		{
			name: "trips while firing push the resolution window out",
			opts: Options{MinTrips: 1, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StateFiring, 1, 0},
				{clearAfter - sec, true, StateFiring, 1, 0}, // refreshes lastTrip
				{clearAfter - time.Nanosecond, false, StateFiring, 1, 0},
				{time.Nanosecond, false, StateResolved, 1, 1},
			},
		},
		{
			name: "resolved re-arms and re-fires",
			opts: Options{MinTrips: 2, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StatePending, 0, 0},
				{sec, true, StateFiring, 1, 0},
				{clearAfter, false, StateResolved, 1, 1},
				{sec, true, StatePending, 1, 1}, // resolved → pending, not idle
				{sec, true, StateFiring, 2, 1},
				{clearAfter, false, StateResolved, 2, 2},
			},
		},
		{
			name: "resolved disarm returns to resolved, not idle",
			opts: Options{MinTrips: 3, ClearAfter: clearAfter},
			steps: []step{
				{sec, true, StatePending, 0, 0},
				{sec, true, StatePending, 0, 0},
				{sec, true, StateFiring, 1, 0},
				{clearAfter, false, StateResolved, 1, 1},
				{sec, true, StatePending, 1, 1},
				{sec, false, StateResolved, 1, 1},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, clk := newTestPipeline(t, tc.opts)
			s := p.Register("s0", "m0")
			runSteps(t, clk, s, tc.steps)
			s.Close()
		})
	}
}

func TestTripPredicate(t *testing.T) {
	gateOnly := obs.Verdict{GateTripped: true, Anomalous: false, GateDist: 2, LOF: 1}

	t.Run("default counts only anomalous windows", func(t *testing.T) {
		p, _ := newTestPipeline(t, Options{MinTrips: 1})
		s := p.Register("s0", "m0")
		s.Observe(gateOnly)
		if s.State() != StateIdle || s.Fired() != 0 {
			t.Fatalf("gate-only trip fired: state %v fired %d", s.State(), s.Fired())
		}
		s.Close()
	})

	t.Run("trip-on-gate counts every gate trip", func(t *testing.T) {
		p, clk := newTestPipeline(t, Options{MinTrips: 1, TripOnGate: true})
		clk.advance(time.Second)
		s := p.Register("s0", "m0")
		s.Observe(gateOnly)
		if s.State() != StateFiring || s.Fired() != 1 {
			t.Fatalf("gate trip ignored: state %v fired %d", s.State(), s.Fired())
		}
		s.Close()
	})
}

func TestStreamCloseResolvesOpenIncident(t *testing.T) {
	p, clk := newTestPipeline(t, Options{MinTrips: 1, ClearAfter: time.Minute})
	s := p.Register("s0", "m0")
	clk.advance(time.Second)
	s.Observe(obs.Verdict{Anomalous: true, GateDist: 3, LOF: 3})
	if s.State() != StateFiring {
		t.Fatalf("state = %v, want firing", s.State())
	}
	clk.advance(time.Second)
	s.Close()
	if s.Resolved() != 1 {
		t.Fatalf("close left the incident open: resolved = %d", s.Resolved())
	}
	if got := len(p.Snapshot().Streams); got != 0 {
		t.Fatalf("closed stream still listed (%d rows)", got)
	}
	b := p.Books()
	if b.Fired != 1 || b.Resolved != 1 {
		t.Fatalf("books fired/resolved = %d/%d, want 1/1", b.Fired, b.Resolved)
	}
}

func TestStreamCloseWhileResolvedEmitsNothing(t *testing.T) {
	p, clk := newTestPipeline(t, Options{MinTrips: 1, ClearAfter: time.Second})
	s := p.Register("s0", "m0")
	clk.advance(time.Second)
	s.Observe(obs.Verdict{Anomalous: true, GateDist: 3, LOF: 3})
	clk.advance(time.Second)
	s.Observe(obs.Verdict{})
	if s.State() != StateResolved {
		t.Fatalf("state = %v, want resolved", s.State())
	}
	s.Close()
	if s.Resolved() != 1 {
		t.Fatalf("close double-resolved: %d", s.Resolved())
	}
}

func TestObserveFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	p, _ := newTestPipeline(t, Options{MinTrips: 3})
	s := p.Register("s0", "m0")
	quiet := obs.Verdict{GateDist: 0.2, LOF: 1.0}
	if allocs := testing.AllocsPerRun(1000, func() { s.Observe(quiet) }); allocs != 0 {
		t.Fatalf("no-alert fast path allocates %.1f per observe, want 0", allocs)
	}
	s.Close()
}
