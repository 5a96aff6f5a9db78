// Package alert turns the monitor's per-window decisions into operator
// notifications. A daemon watching millions of streams is useless if a
// human has to poll /stats, but raw gate trips are far too noisy to page
// on: one flapping stream would bury every real incident. The per-stream
// hysteresis makes every notification one distinct incident edge, and
// each edge is delivered once and ends in exactly one accounted bucket:
//
//	decision ─→ per-stream state machine ─→ transition (firing/resolved)
//	             (MinTrips / ClearAfter        │
//	              hysteresis)                  ├─ rate-limited (global bucket)
//	                                           ├─ queue-dropped (dispatch full)
//	                                           └─ enqueued ─→ dispatcher ─→ sinks
//	                                                          (one goroutine)   │
//	                                                                            ├─ delivered
//	                                                                            └─ errors
//
// The state machine runs on the stream's scoring goroutine and is
// allocation-free when nothing is wrong (the no-alert fast path); the
// dispatch queue is the decoupling point, so a slow webhook can never
// backpressure scoring — overflow is counted, never waited on. Books
// balance by construction: fired + resolved == rate-limited +
// queue-dropped + enqueued, and per sink enqueued == delivered + errors
// once the queue drains (Books.Balanced verifies exactly this; the
// TestFlapping* tests drive it).
package alert

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"enduratrace/internal/obs"
)

// State is a stream's position in the alert lifecycle.
type State uint32

const (
	// StateIdle: never fired, no trips outstanding.
	StateIdle State = iota
	// StatePending: consecutive trips accumulating toward MinTrips.
	StatePending
	// StateFiring: an incident is open; a firing notification was emitted.
	StateFiring
	// StateResolved: a past incident resolved; behaves like idle, kept
	// distinct so "resolved → pending re-fire" is an observable edge.
	StateResolved
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	case StateResolved:
		return "resolved"
	}
	return "unknown"
}

// Kind labels a notification: an incident opening or closing.
type Kind uint8

const (
	KindFiring Kind = iota + 1
	KindResolved
)

func (k Kind) String() string {
	switch k {
	case KindFiring:
		return "firing"
	case KindResolved:
		return "resolved"
	}
	return "unknown"
}

// MarshalText makes Kind render as its name in JSON payloads.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the name back (webhook consumers round-trip the
// payload; tests do too).
func (k *Kind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "firing":
		*k = KindFiring
	case "resolved":
		*k = KindResolved
	default:
		return fmt.Errorf("alert: unknown kind %q", b)
	}
	return nil
}

// Observation is the verdict Observe takes under its old name. It is kept
// only because the wire benchmark (bench/) still builds it, and goes when
// that benchmark next changes.
type Observation = obs.Verdict

// Notification is one alert transition on its way to the sinks.
type Notification struct {
	Kind   Kind   `json:"kind"`
	Stream string `json:"stream"`
	Model  string `json:"model"`
	// Wall is the pipeline-clock time of the transition.
	Wall time.Time `json:"wall"`
	// Verdict is the verdict of the window that armed the incident (for
	// firing) or that the incident fired with (for resolved).
	Verdict obs.Verdict `json:"verdict"`
	// Trips is how many consecutive tripped windows armed the incident.
	Trips int `json:"trips"`
	// FiredWall and DurationS are set on resolved notifications: when the
	// incident fired and how long it stayed open.
	FiredWall time.Time `json:"fired_wall,omitzero"`
	DurationS float64   `json:"duration_s,omitempty"`
}

// Options configures a Pipeline.
type Options struct {
	// MinTrips is the hysteresis arm count: an incident fires on the
	// MinTrips-th consecutive tripped window (default 3). A clear window
	// while pending resets the count — one isolated trip never pages.
	MinTrips int
	// ClearAfter is the resolution hysteresis: a firing incident resolves
	// on the first clear window at least ClearAfter after the incident's
	// last tripped window (default 30s).
	ClearAfter time.Duration
	// TripOnGate makes every gate trip count toward firing; the default
	// (false) counts only anomalous windows (LOF >= alpha), the
	// already-filtered signal.
	TripOnGate bool
	// GlobalRate and GlobalBurst token-bucket every notification before
	// the queue: Rate > 0 refills Rate tokens/s up to Burst; Rate == 0
	// with Burst > 0 is a fixed budget of Burst notifications (no refill
	// — the deterministic mode the tests use); both zero means unlimited.
	GlobalRate  float64
	GlobalBurst float64
	// QueueLen bounds the dispatch queue (default 256). A full queue drops
	// the notification and counts it — scoring never waits on a sink.
	QueueLen int
	// DeliveryTimeout bounds one sink delivery (default 10s).
	DeliveryTimeout time.Duration
	// Sinks receive every notification that passes the global bucket and
	// the queue. The pipeline owns them: Close closes each exactly once.
	Sinks []Sink
	// Clock substitutes the time source (default time.Now). The tests
	// drive a fake clock through here; it must be safe for concurrent
	// use (every stream's scoring goroutine reads it).
	Clock func() time.Time
}

// recentCap bounds the recent-notification ring served by GET /alerts.
const recentCap = 128

func (o Options) withDefaults() Options {
	if o.MinTrips <= 0 {
		o.MinTrips = 3
	}
	if o.ClearAfter <= 0 {
		o.ClearAfter = 30 * time.Second
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 256
	}
	if o.DeliveryTimeout <= 0 {
		o.DeliveryTimeout = 10 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// modelCounters is one model's share of the pipeline books.
type modelCounters struct {
	fired    atomic.Int64
	resolved atomic.Int64
}

// Pipeline is the alerting stage: build with NewPipeline, Register a
// Stream per served stream, feed verdicts from the decision callback,
// Close when serving stops. All methods are safe for concurrent use;
// Stream.Observe is additionally allocation-free when idle.
type Pipeline struct {
	opts  Options
	clock func() time.Time
	gbkt  *tokenBucket
	disp  *dispatcher

	rlGlobal     atomic.Int64 // notifications refused by the global bucket
	queueDropped atomic.Int64 // notifications refused by a full queue
	enqueued     atomic.Int64 // notifications handed to the dispatcher

	mu       sync.Mutex
	models   map[string]*modelCounters // guarded by mu
	streams  map[*Stream]struct{}      // guarded by mu
	recent   []Notification            // guarded by mu
	recentAt int                       // guarded by mu
	hook     func(Notification)        // guarded by mu
}

// NewPipeline validates the options and builds a running pipeline (the
// dispatcher goroutine starts immediately).
func NewPipeline(opts Options) *Pipeline {
	opts = opts.withDefaults()
	p := &Pipeline{
		opts:    opts,
		clock:   opts.Clock,
		models:  make(map[string]*modelCounters),
		streams: make(map[*Stream]struct{}),
		recent:  make([]Notification, 0, recentCap),
	}
	p.gbkt = newTokenBucket(opts.GlobalRate, opts.GlobalBurst, p.nowNs())
	p.disp = newDispatcher(opts.QueueLen, opts.Sinks, opts.DeliveryTimeout)
	return p
}

// SetTransitionHook installs a callback that observes every state-machine
// transition synchronously on the scoring goroutine, before rate
// limiting: the persistence hook (serve appends transitions to the
// anomaly store through it). It must not block for long. Call before any
// stream is registered.
func (p *Pipeline) SetTransitionHook(hook func(Notification)) {
	p.mu.Lock()
	p.hook = hook
	p.mu.Unlock()
}

func (p *Pipeline) nowNs() int64 { return p.clock().UnixNano() }

func (p *Pipeline) modelCounters(model string) *modelCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	mc := p.models[model]
	if mc == nil {
		mc = &modelCounters{}
		p.models[model] = mc
	}
	return mc
}

// Register creates the alert state for one served stream. Observe must be
// called from a single goroutine (the stream's scoring goroutine); Close
// from that same goroutine when the stream ends.
func (p *Pipeline) Register(stream, model string) *Stream {
	s := &Stream{
		p:      p,
		stream: stream,
		model:  model,
		mc:     p.modelCounters(model),
	}
	p.mu.Lock()
	p.streams[s] = struct{}{}
	p.mu.Unlock()
	return s
}

// Close shuts the pipeline down: the dispatch queue is closed and drained
// exactly once (every already-queued notification still reaches the
// sinks), then every sink is closed exactly once. Idempotent; returns the
// first sink-close error.
func (p *Pipeline) Close() error { return p.disp.Close() }

// Drain blocks until every enqueued notification has been processed by
// the dispatcher or the timeout expires; it reports whether the queue
// fully drained. Streams must be quiet (no concurrent transitions) for
// the answer to be stable — the tests call it after every stream
// closed.
func (p *Pipeline) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if p.disp.processed.Load() >= p.enqueued.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Stream is one served stream's alert state machine. Owned by the
// stream's scoring goroutine: Observe and Close must not be called
// concurrently with each other. The admin surface reads only the atomic
// fields.
type Stream struct {
	p      *Pipeline
	stream string
	model  string
	mc     *modelCounters

	state atomic.Uint32 // State; written by owner, read by admin

	// Owner-goroutine-only state machine fields.
	trips     int         // consecutive trips while pending
	everFired bool        // picks Idle vs Resolved on reset
	lastTrip  int64       // clock ns of the last tripped window
	firedAt   int64       // clock ns the open incident fired
	arm       obs.Verdict // the window that armed the incident
	armTrips  int

	// Admin/test-visible incident counters.
	fired    atomic.Int64
	resolved atomic.Int64
}

// Stream and Model identify the stream this state machine watches.
func (s *Stream) Stream() string { return s.stream }
func (s *Stream) Model() string  { return s.model }

// State returns the machine's current state (safe from any goroutine).
func (s *Stream) State() State { return State(s.state.Load()) }

// Fired and Resolved count this stream's incidents (safe from any
// goroutine).
func (s *Stream) Fired() int64    { return s.fired.Load() }
func (s *Stream) Resolved() int64 { return s.resolved.Load() }

// Observe advances the state machine with one window's verdict. The
// no-alert fast path — a clear window on an idle or resolved stream —
// returns without locking, reading the clock, or allocating.
//
//enduratrace:zeroalloc
func (s *Stream) Observe(v obs.Verdict) {
	tripped := v.Anomalous
	if s.p.opts.TripOnGate {
		tripped = v.GateTripped
	}
	st := State(s.state.Load())
	if !tripped && (st == StateIdle || st == StateResolved) {
		return // the fast path: nothing outstanding, nothing tripped
	}

	now := s.p.nowNs()
	switch st {
	case StateIdle, StateResolved:
		// tripped (the clear case returned above): start arming.
		s.trips = 1
		s.lastTrip = now
		s.arm = v
		if s.trips >= s.p.opts.MinTrips {
			s.fire(now)
		} else {
			s.state.Store(uint32(StatePending))
		}
	case StatePending:
		if !tripped {
			// Hysteresis: consecutive trips required; one clear disarms.
			s.reset()
			return
		}
		s.trips++
		s.lastTrip = now
		s.arm = v
		if s.trips >= s.p.opts.MinTrips {
			s.fire(now)
		}
	case StateFiring:
		if tripped {
			s.lastTrip = now
			return
		}
		if now-s.lastTrip >= int64(s.p.opts.ClearAfter) {
			s.resolve(now)
		}
	}
}

// Close ends the stream's alert life: an open incident resolves (the
// stream going away closes it), and the stream leaves the admin listing.
// Call once, from the owning goroutine, after the last Observe.
func (s *Stream) Close() {
	if State(s.state.Load()) == StateFiring {
		s.resolve(s.p.nowNs())
	}
	s.p.mu.Lock()
	delete(s.p.streams, s)
	s.p.mu.Unlock()
}

func (s *Stream) reset() {
	if s.everFired {
		s.state.Store(uint32(StateResolved))
	} else {
		s.state.Store(uint32(StateIdle))
	}
	s.trips = 0
}

// fire opens the incident: Pending (or a first-trip arm) → Firing.
func (s *Stream) fire(now int64) {
	s.state.Store(uint32(StateFiring))
	s.everFired = true
	s.firedAt = now
	s.armTrips = s.trips
	s.fired.Add(1)
	s.mc.fired.Add(1)
	s.p.emit(Notification{
		Kind:    KindFiring,
		Stream:  s.stream,
		Model:   s.model,
		Wall:    time.Unix(0, now).UTC(),
		Verdict: s.arm,
		Trips:   s.trips,
	}, now)
}

// resolve closes the incident: Firing → Resolved.
func (s *Stream) resolve(now int64) {
	s.reset()
	s.resolved.Add(1)
	s.mc.resolved.Add(1)
	s.p.emit(Notification{
		Kind:      KindResolved,
		Stream:    s.stream,
		Model:     s.model,
		Wall:      time.Unix(0, now).UTC(),
		Verdict:   s.arm,
		Trips:     s.armTrips,
		FiredWall: time.Unix(0, s.firedAt).UTC(),
		DurationS: float64(now-s.firedAt) / 1e9,
	}, now)
}

// emit routes one transition: persistence hook, recent ring, then the
// terminal buckets — global rate limit, dispatch queue. Exactly one
// bucket counts each notification; none of them blocks.
func (p *Pipeline) emit(n Notification, now int64) {
	p.mu.Lock()
	hook := p.hook
	if len(p.recent) < cap(p.recent) {
		p.recent = append(p.recent, n)
	} else {
		p.recent[p.recentAt] = n
		p.recentAt = (p.recentAt + 1) % cap(p.recent)
	}
	p.mu.Unlock()
	if hook != nil {
		hook(n)
	}
	if !p.gbkt.take(now) {
		p.rlGlobal.Add(1)
		return
	}
	if !p.disp.enqueue(n) {
		p.queueDropped.Add(1)
		return
	}
	p.enqueued.Add(1)
}
