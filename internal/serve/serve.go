// Package serve is the network-facing serving layer: a long-lived daemon
// that loads one learned model and monitors any number of live trace
// streams pushed to it over TCP.
//
// The shape follows PR 3's split of the monitor into an immutable shared
// core.Learned and mutable per-stream core.Monitors: each accepted
// connection is one stream, with two goroutines —
//
//	socket ─→ traceio.FrameReader ─→ bounded eventQueue ─→ Monitor.Run ─→ Sink
//	         (ingest goroutine)      (backpressure here)   (scoring goroutine)
//
// The queue is the explicit backpressure point: Block propagates a slow
// model back to the sender through TCP flow control, DropOldest bounds
// latency and counts the holes. Graceful shutdown stops ingestion, drains
// every queue, flushes every recorder sink, and reports per-stream
// RunStats; an HTTP admin listener serves the endpoints adminMux lists
// throughout.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/obs"
	"enduratrace/internal/recorder"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
)

// Options configures a Server.
type Options struct {
	// Models is the registry of named models streams resolve against: a
	// stream's frame header may name the model it wants (header v2), an
	// empty or absent name gets the registry default, and unknown names
	// are rejected at registration. Registries loaded with
	// core.LoadModelDir support hot reload (Server.Reload, POST /reload).
	// When nil, a single-model registry named "default" is built from Cfg
	// and Learned.
	Models *core.ModelRegistry
	// Cfg and Learned are the single-model fallback used when Models is
	// nil (typically from core.LoadModel).
	Cfg     core.Config
	Learned *core.Learned
	// QueueLen bounds each stream's event queue (default 1024).
	QueueLen int
	// Backpressure selects the full-queue policy (default Block).
	Backpressure Backpressure
	// Sinks builds one recorder sink per stream (default NullFactory:
	// stat-only serving with exact byte accounting).
	Sinks recorder.SinkFactory
	// Anomalies, when non-nil, persists every gate trip into the anomaly
	// store: the tripped window plus DefaultAnomalyContext preceding
	// windows, the LOF score, and the scoring model's identity. The server
	// does not own the store; the caller closes it after Serve returns.
	Anomalies *anomalystore.Store
	// Logger receives serving diagnostics (default: discard). Build one
	// with NewLogger to get the -log-format text/json behaviour.
	Logger *slog.Logger
	// FlightEvery samples every Nth event per stream into the flight
	// recorder, a ring of DefaultFlightCap records (0 means
	// DefaultFlightEvery; negative disables sampling).
	FlightEvery int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the admin
	// listener. Off by default: profiles expose internals and CPU
	// captures cost real cycles, so the handlers exist only when asked
	// for (the -pprof flag).
	EnablePprof bool
	// Alerts, when non-nil, feeds every scoring decision through the
	// alerting pipeline: each stream gets a hysteresis state machine
	// (alert.Options.MinTrips / ClearAfter) whose firing/resolved
	// transitions are rate limited and delivered to the configured
	// sinks. With Anomalies also set, New installs the pipeline's
	// transition hook so every transition is persisted to the store as a
	// window-free incident. The server does not own the pipeline; the
	// caller closes it after Serve returns (so queued notifications drain
	// after the last stream ends).
	Alerts *alert.Pipeline
}

// The flight recorder samples every DefaultFlightEvery-th event unless
// Options.FlightEvery says otherwise, into a ring of DefaultFlightCap
// records. DefaultStallAfter is how long a stream may hold queued events
// without the scorer making progress before /streams flags it stalled and
// the enduratrace_streams_stalled gauge counts it.
const (
	DefaultFlightEvery = 256
	DefaultFlightCap   = 512
	DefaultStallAfter  = 30 * time.Second
)

// ingestBatch is how many decoded events the ingest goroutine moves per
// FrameReader.ReadBatch / eventQueue.PushBatch round trip: large enough
// to amortise the queue mutex and decode bookkeeping to noise, small
// enough that a batch is a fraction of the default queue capacity.
const ingestBatch = 512

// headerTimeout is how long a new connection has to deliver its stream
// header. A client that connects and says nothing would otherwise pin a
// goroutine and a pooled 64 KiB reader for the life of the daemon.
const headerTimeout = 10 * time.Second

// drainTimeout bounds how long shutdown waits for streams to drain before
// it force-closes their connections.
const drainTimeout = 10 * time.Second

// resultsCap is how many closed streams' results Results keeps, newest
// last. The per-model books cover every stream ever served; the results
// are the recent detail, and a daemon that runs for months must not keep
// one per stream.
const resultsCap = 1024

// StreamResult is one stream's final accounting, reported after it closes.
type StreamResult struct {
	ID              string  `json:"id"`
	Model           string  `json:"model"`
	Windows         int     `json:"windows"`
	GateTrips       int     `json:"gate_trips"`
	Anomalies       int     `json:"anomalies"`
	RecordedWindows int     `json:"recorded_windows"`
	RecordedBytes   int64   `json:"recorded_bytes"`
	FullBytes       int64   `json:"full_bytes"`
	DroppedEvents   int64   `json:"dropped_events"`
	SpanS           float64 `json:"span_s"`
	// Clean is true when the client terminated the stream with the
	// end-of-stream marker; false for truncated connections and streams
	// cut by server shutdown.
	Clean bool   `json:"clean"`
	Err   string `json:"err,omitempty"`
}

// StatsReport is the aggregate view served by /stats and returned by
// Report — the `monitor -json` shape plus serving counters. Totals cover
// every stream ever served (closed streams' finals plus live streams'
// current counters).
type StatsReport struct {
	Windows         int64    `json:"windows"`
	GateTrips       int64    `json:"gate_trips"`
	LOFCalls        int64    `json:"lof_calls"`
	Anomalies       int64    `json:"anomalies"`
	RecordedWindows int64    `json:"recorded_windows"`
	FullBytes       int64    `json:"full_bytes"`
	RecordedBytes   int64    `json:"recorded_bytes"`
	ReductionFactor *float64 `json:"reduction_factor"`
	StreamsLive     int      `json:"streams_live"`
	StreamsClosed   int      `json:"streams_closed"`
	// StreamsRejected counts every stream refused at registration, whatever
	// the reason; RejectedUnknownModel is the unknown-model-name subset.
	// The remainder is sink-creation and other registration failures — all
	// of them must show up here, or refused streams vanish from the books.
	StreamsRejected      int64 `json:"streams_rejected"`
	RejectedUnknownModel int64 `json:"rejected_unknown_model"`
	DroppedEvents        int64 `json:"dropped_events"`
	// AnomalyIncidents counts gate trips persisted to the anomaly store,
	// booked once the fsync covering the record has returned;
	// AnomalyStoreErrors counts those whose write or fsync failed (the
	// stream continues); AnomalyInFlight counts those written and not yet
	// settled — at most tripsInFlight per live stream. Once every decided
	// window has reached the trip recorder the three sum to the gate
	// trips, and at stream close that stream's in-flight share is zero.
	// All stay zero when no store is attached.
	AnomalyIncidents   int64 `json:"anomaly_incidents"`
	AnomalyStoreErrors int64 `json:"anomaly_store_errors"`
	AnomalyInFlight    int64 `json:"anomaly_in_flight"`
	// AlertTransitions counts alert firing/resolved transitions persisted
	// to the anomaly store (every transition, before rate limiting);
	// AlertStoreErrors counts those appends that failed.
	// AlertsFiring is the number of streams with an open incident right
	// now. All zero without an alert pipeline.
	AlertTransitions int64         `json:"alert_transitions"`
	AlertStoreErrors int64         `json:"alert_store_errors"`
	AlertsFiring     int           `json:"alerts_firing"`
	ModelPoints      int           `json:"model_points"`
	UptimeS          obs.JSONFloat `json:"uptime_s"`
}

// StreamView is one live stream's row in /streams.
type StreamView struct {
	ID    string `json:"id"`
	Model string `json:"model"`
	// State is "active" while the stream receives and scores windows, and
	// "draining" once ingestion has stopped (a clean end of stream or
	// shutdown) and the queued events are being scored.
	State           string        `json:"state"`
	Since           time.Time     `json:"since"`
	Counters        core.Snapshot `json:"counters"`
	QueueDepth      int           `json:"queue_depth"`
	EventsIngested  int64         `json:"events_ingested"`
	EventsScored    int64         `json:"events_scored"`
	DroppedEvents   int64         `json:"dropped_events"`
	FullBytes       int64         `json:"full_bytes"`
	RecordedBytes   int64         `json:"recorded_bytes"`
	RecordedWindows int64         `json:"recorded_windows"`
	// LastIngestAgeS and LastProgressAgeS are the stall watchdog's inputs:
	// seconds since the ingester last enqueued an event and since the
	// scorer last dequeued one. Stalled flags a stream holding queued
	// events whose scorer has made no progress for DefaultStallAfter —
	// the signature of a wedged model or a sink blocked on I/O (an empty
	// queue is never stalled, it is just idle).
	LastIngestAgeS   obs.JSONFloat `json:"last_ingest_age_s"`
	LastProgressAgeS obs.JSONFloat `json:"last_progress_age_s"`
	Stalled          bool          `json:"stalled"`
}

// stream is the one record of a live connection: its id, the model it
// was pinned to at registration (a reload does not change it), its
// monitor, and the queue, sink and stage histograms around it. The
// monitor, reader and sink belong to the stream's goroutines; everything
// view reads is safe to read from any goroutine.
type stream struct {
	id    string
	model *core.NamedModel
	// modelGen is the registry generation model was resolved in, pinned
	// with it at registration: every record the stream stores names it.
	modelGen int64
	since    time.Time
	draining atomic.Bool
	mon      *core.Monitor
	q        *eventQueue
	sink     recorder.Sink
	pipe     *obs.Pipeline
	fr       *traceio.FrameReader
}

// books is the accounting of a set of streams: the monitors' books, the
// serving layer's received-byte and drop counters, and how many of the
// streams are live and how many closed.
type books struct {
	core.Snapshot
	fullBytes, dropped int64
	live, closed       int
}

func (b books) add(o books) books {
	return books{
		Snapshot:  b.Snapshot.Add(o.Snapshot),
		fullBytes: b.fullBytes + o.fullBytes,
		dropped:   b.dropped + o.dropped,
		live:      b.live + o.live,
		closed:    b.closed + o.closed,
	}
}

// Server is the serving daemon. Build with New, bind with Listen, then
// Serve until the context is cancelled; Results/Report read the final
// accounting afterwards.
type Server struct {
	opts   Options
	models *core.ModelRegistry
	log    *slog.Logger
	start  time.Time

	// flight is the sampled event flight recorder (nil when disabled).
	flight *obs.Flight
	// obsBy holds one Pipeline of stage histograms per model name,
	// created on first use and never removed: latency history survives
	// stream churn and model reloads, like the counter totals do.
	obsMu sync.Mutex
	obsBy map[string]*obs.Pipeline

	traceLn net.Listener
	adminLn net.Listener

	// mu guards the connections and the stream table: the live streams by
	// id, every closed stream's final books folded per model, and the
	// newest results. A stream leaves live and enters closedBy in one
	// critical section, so a snapshot counts it exactly once.
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	shutdown bool
	live     map[string]*stream // guarded by mu
	closedBy map[string]books   // guarded by mu
	seq      int                // guarded by mu
	results  []StreamResult     // guarded by mu

	// headerTimeout, drainTimeout and DefaultStallAfter; fields so a test
	// need not wait them out.
	headerWait, drainWait, stallAfter time.Duration

	// Streams refused at registration, by reason. Every refusal path must
	// bump exactly one of these — a rejection that increments nothing is
	// invisible to /stats and /metrics, which is the accounting bug this
	// split fixes (only unknown-model used to be counted).
	rejHeader   atomic.Int64 // no valid stream header within headerWait
	rejUnknown  atomic.Int64 // model name not in the registry
	rejRegister atomic.Int64 // other registration failures
	rejSink     atomic.Int64 // sink factory refused the stream

	anomIncidents atomic.Int64 // gate trips persisted to the anomaly store
	anomStoreErrs atomic.Int64 // anomaly store appends that failed
	anomInFlight  atomic.Int64 // incidents written and not yet settled, over all streams

	alertPersisted   atomic.Int64 // alert transitions persisted to the anomaly store
	alertPersistErrs atomic.Int64 // alert-transition appends that failed
	alertErrLogged   atomic.Bool  // one log line for persist failures, not one per transition

	wg sync.WaitGroup
}

// New validates the options and builds a server (not yet listening).
func New(opts Options) (*Server, error) {
	models := opts.Models
	if models == nil {
		var err error
		models, err = core.NewModelRegistry("",
			&core.NamedModel{Name: "default", Cfg: opts.Cfg, Learned: opts.Learned})
		if err != nil {
			return nil, err
		}
	}
	if opts.Sinks == nil {
		opts.Sinks = recorder.NullFactory()
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 1024
	}
	if opts.FlightEvery == 0 {
		opts.FlightEvery = DefaultFlightEvery
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	var flight *obs.Flight
	if opts.FlightEvery > 0 {
		flight = obs.NewFlight(opts.FlightEvery, DefaultFlightCap)
	}
	srv := &Server{
		opts:   opts,
		models: models,
		log:    logger,
		//lint:ignore monotime uptime counts from New, not obs's process epoch; time.Since uses start's monotonic reading
		start:    time.Now(),
		flight:   flight,
		obsBy:    make(map[string]*obs.Pipeline),
		conns:    make(map[net.Conn]struct{}),
		live:     make(map[string]*stream),
		closedBy: make(map[string]books),

		headerWait: headerTimeout,
		drainWait:  drainTimeout,
		stallAfter: DefaultStallAfter,
	}
	if opts.Alerts != nil && opts.Anomalies != nil {
		// Persist every alert transition into the anomaly store alongside
		// the gate-trip incidents; installed before any stream registers.
		opts.Alerts.SetTransitionHook(srv.persistAlertTransition)
	}
	return srv, nil
}

// pipelineFor returns the stage-histogram bundle for a model name,
// creating it on first use.
func (s *Server) pipelineFor(model string) *obs.Pipeline {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	p := s.obsBy[model]
	if p == nil {
		p = &obs.Pipeline{}
		s.obsBy[model] = p
	}
	return p
}

// pipelines snapshots the per-model pipeline map for the metrics writer.
func (s *Server) pipelines() map[string]*obs.Pipeline {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	return maps.Clone(s.obsBy)
}

// Flight returns the event flight recorder (nil when disabled).
func (s *Server) Flight() *obs.Flight { return s.flight }

// Reload hot-swaps the model registry from its directory (see
// core.ModelRegistry.Reload): in-flight streams finish on the model they
// were registered with, streams accepted afterwards resolve against the
// new set. Exposed over the admin endpoint as POST /reload and typically
// also wired to SIGHUP by the caller.
func (s *Server) Reload() (core.ReloadReport, error) {
	rep, err := s.models.Reload()
	if err != nil {
		s.log.Error("reload failed", "err", err)
		return rep, err
	}
	s.log.Info("models reloaded", "generation", rep.Generation,
		"models", strings.Join(rep.Models, " "), "default", rep.Default,
		"added", rep.Added, "removed", rep.Removed)
	return rep, nil
}

// Listen binds the trace ingestion listener and, when adminAddr is
// non-empty, the HTTP admin listener. Use port 0 for ephemeral ports and
// TraceAddr/AdminAddr to discover them.
func (s *Server) Listen(traceAddr, adminAddr string) error {
	ln, err := net.Listen("tcp", traceAddr)
	if err != nil {
		return fmt.Errorf("serve: trace listener: %w", err)
	}
	s.traceLn = ln
	if adminAddr != "" {
		aln, err := net.Listen("tcp", adminAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: admin listener: %w", err)
		}
		s.adminLn = aln
	}
	return nil
}

// TraceAddr returns the bound trace listener address.
func (s *Server) TraceAddr() net.Addr { return s.traceLn.Addr() }

// AdminAddr returns the bound admin listener address (nil when admin is
// disabled).
func (s *Server) AdminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

// Serve accepts and monitors streams until ctx is cancelled, then shuts
// down gracefully: stop accepting, stop ingesting, drain every stream's
// queue, flush and close every sink. It returns once every stream has
// finished (or drainTimeout forced the stragglers).
func (s *Server) Serve(ctx context.Context) error {
	if s.traceLn == nil {
		return errors.New("serve: Serve before Listen")
	}
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- s.acceptLoop() }()
	var adminSrv *http.Server
	if s.adminLn != nil {
		adminSrv = s.newAdminServer()
		go s.serveAdmin(adminSrv)
	}

	var err error
	select {
	case <-ctx.Done():
	case err = <-acceptErr:
	}
	s.beginShutdown()
	if err == nil {
		// Wait for the accept loop to observe the closed listener.
		if aerr := <-acceptErr; aerr != nil {
			err = aerr
		}
	}
	s.drain()
	if adminSrv != nil {
		s.shutdownAdmin(adminSrv)
	}
	return err
}

func (s *Server) acceptLoop() error {
	for {
		conn, err := s.traceLn.Accept()
		if err != nil {
			if s.isShuttingDown() {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) isShuttingDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

// beginShutdown stops accepting and unblocks every ingest read; the
// already-decoded and queued events still get scored (the drain).
func (s *Server) beginShutdown() {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return
	}
	s.shutdown = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.traceLn.Close()
	for _, c := range conns {
		// Expire reads instead of closing: the ingest goroutine wakes with
		// a deadline error and closes its queue, and the scorer drains.
		//lint:ignore monotime net deadlines are wall-clock time.Time by API contract
		c.SetReadDeadline(time.Now())
	}
}

// setReadDeadline moves conn's read deadline, unless shutdown has begun:
// beginShutdown expires every connection's reads, and a deadline set or
// cleared after that would undo it.
func (s *Server) setReadDeadline(conn net.Conn, t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.shutdown {
		conn.SetReadDeadline(t)
	}
}

// drain waits for every stream handler; after drainTimeout the remaining
// connections are force-closed (their scorers still finish their queues).
func (s *Server) drain() {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return
	case <-time.After(s.drainWait):
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
}

// handleConn runs one stream: open it, ingest frames off the socket into
// the bounded queue while score runs the monitor on the other end of it,
// then close it.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	st := s.open(conn)
	if st == nil {
		return
	}
	ingestErr := make(chan error, 1)
	go func() { ingestErr <- st.ingest() }()
	stats, runErr := s.score(st)
	// Close the queue before joining the ingester: if Run exited early (a
	// sink error), the ingest goroutine may be parked in a Block-policy
	// Push with nobody left to consume — Close (idempotent) unparks it.
	st.q.Close()
	ierr := <-ingestErr
	// The ingest goroutine has exited: the reader (and its pooled buffers)
	// can go back for the next connection.
	st.fr.Release()
	s.close(st, stats, runErr, ierr)
}

// open reads the stream header, registers the stream and builds its
// sink. A refusal is booked under its reason and open returns nil; the
// caller's conn.Close then surfaces it to the client as an ended stream
// (a write error on its next flush) rather than letting it pump events
// into a void.
func (s *Server) open(conn net.Conn) *stream {
	remote := conn.RemoteAddr().String()
	//lint:ignore monotime net deadlines are wall-clock time.Time by API contract
	s.setReadDeadline(conn, time.Now().Add(s.headerWait))
	fr, err := traceio.NewFrameReader(conn)
	if err != nil {
		s.rejHeader.Add(1)
		s.log.Warn("connection rejected", "remote", remote, "err", err)
		return nil
	}
	s.setReadDeadline(conn, time.Time{}) // a stream may idle as long as it likes
	st, err := s.register(fr.StreamName(), fr.ModelName())
	if err != nil {
		if errors.Is(err, core.ErrUnknownModel) {
			s.rejUnknown.Add(1)
		} else {
			s.rejRegister.Add(1)
		}
		s.log.Warn("stream registration failed", "remote", remote, "err", err)
		fr.Release()
		return nil
	}
	sink, err := s.opts.Sinks(st.id)
	if err != nil {
		// Out of the table without a close: the stream never served, and a
		// refusal that also bumped the closed-stream count would be
		// double-booked.
		s.mu.Lock()
		delete(s.live, st.id)
		s.mu.Unlock()
		s.rejSink.Add(1)
		s.log.Warn("sink creation failed", "stream", st.id, "err", err)
		fr.Release()
		return nil
	}
	st.fr, st.sink = fr, sink
	s.log.Info("stream opened", "stream", st.id, "remote", remote, "model", st.model.Name)
	return st
}

// register resolves modelName (empty means the registry default), builds
// a monitor pinned to that model and enters the stream in the live table
// under name. An empty name gets a sequential "stream-NNNN" id; a taken
// name is suffixed with the sequence number instead of failing, so
// client-chosen names collide harmlessly. Unknown model names fail with
// core.ErrUnknownModel and enter nothing.
func (s *Server) register(name, modelName string) (*stream, error) {
	m, gen, err := s.models.Resolve(modelName)
	if err != nil {
		return nil, err
	}
	mon, err := core.NewMonitor(m.Cfg, m.Learned)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", m.Name, err)
	}
	pipe := s.pipelineFor(m.Name)
	var flightEvery uint64
	if s.flight != nil {
		flightEvery = s.flight.EveryN()
	}
	st := &stream{
		model:    m,
		modelGen: gen,
		//lint:ignore monotime since is a wall-clock registration timestamp shown to operators
		since: time.Now(),
		mon:   mon,
		q:     newEventQueue(s.opts.QueueLen, s.opts.Backpressure, pipe, flightEvery),
		pipe:  pipe,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	base := name
	if base == "" {
		base = fmt.Sprintf("stream-%04d", s.seq)
	}
	// Suffix until unique: auto ids and client names share one namespace,
	// so both paths must dodge collisions (a client may have claimed
	// "stream-0002" before auto id 2 is handed out).
	st.id = base
	for seq := s.seq; ; seq++ {
		if _, taken := s.live[st.id]; !taken {
			break
		}
		st.id = fmt.Sprintf("%s-%04d", base, seq)
	}
	s.live[st.id] = st
	return st, nil
}

// ingest decodes frames off the socket into the bounded queue until the
// stream ends, then marks the stream draining and closes the queue so the
// scorer finishes what is left. A clean end of stream, and a queue closed
// under it by shutdown, return nil.
func (st *stream) ingest() error {
	var err error
	evBuf := make([]trace.Event, ingestBatch)
	for err == nil {
		// The decode stage is timed around fr.ReadBatch once fr.Wait has
		// seen a byte arrive, so an idle stream's socket wait stays out of
		// it; the wait for the rest of a frame already begun still counts.
		// The time is amortised evenly across the batch — one run of n
		// equal observations. The reader counts the events' exact encoded
		// size as it decodes them; the queue keeps that count, so the
		// stream's full-trace size includes the events it sheds.
		st.fr.Wait()
		t0 := obs.Now()
		var n int
		n, err = st.fr.ReadBatch(evBuf)
		if n > 0 {
			now := obs.Now()
			share := (now - t0) / int64(n)
			st.pipe.Decode.ObserveN(share, n)
			st.q.evBytes.Store(st.fr.EventBytes())
			if !st.q.PushBatch(evBuf[:n], now, share) {
				err = nil // queue closed by shutdown
				break
			}
		}
	}
	if err == io.EOF {
		err = nil
	}
	st.draining.Store(true)
	st.q.Close()
	return err
}

// score runs the stream's monitor over its queue into its sink, handing
// every decision to its consumers in a fixed order: score and end-to-end
// timing and the flight recorder, the alert state machine, then the
// anomaly store.
func (s *Server) score(st *stream) (core.RunStats, error) {
	var trips *tripRecorder
	if s.opts.Anomalies != nil {
		trips = s.newTripRecorder(st)
	}
	// The alert state machine rides the same decision callback, on the
	// scoring goroutine; its no-alert fast path keeps the quiet-stream
	// cost at zero allocations.
	var as *alert.Stream
	if s.opts.Alerts != nil {
		as = s.opts.Alerts.Register(st.id, st.model.Name)
	}
	stats, err := st.mon.Run(st.q, st.sink, func(d core.Decision) error {
		st.pipe.Score.Observe(time.Duration(d.ScoreNs))
		s.recordFlight(st, d)
		if as != nil {
			as.Observe(d.Verdict)
		}
		if trips != nil {
			return trips.onDecision(d)
		}
		return nil
	})
	if trips != nil {
		trips.settle() // the last trips, before the stream's result is published
	}
	if as != nil {
		// Run has returned, so this is still the (former) scoring
		// goroutine: the stream going away resolves any open incident.
		as.Close()
	}
	return stats, err
}

// recordFlight books one decision's end-to-end latencies and, when the
// flight recorder sampled an event of its window, that event's record.
// It runs on the scoring goroutine. A decision with no arrivals returns
// before the clock is read: its window's events were all popped before an
// earlier decision, which took their arrivals, and the flight sample and
// skips come from the same pops, so there is none either. That is most
// windows of a batch.
func (s *Server) recordFlight(st *stream, d core.Decision) {
	arrivals := st.q.takeArrivals()
	if len(arrivals) == 0 {
		return
	}
	now := obs.Now()
	// Every event popped since the previous decision belongs to this
	// window: its end-to-end latency is arrival → this decision. This is
	// what makes the e2e histogram's _count equal the number of events
	// scored (TestSelftestEndToEnd asserts exactly that).
	for _, a := range arrivals {
		st.pipe.E2E.ObserveN(now-a.enqNs, a.n)
	}
	if s.flight == nil {
		return
	}
	fm, skipped, ok := st.q.takeFlight()
	for i := 0; i < skipped; i++ {
		s.flight.NoteSkipped()
	}
	if !ok {
		return
	}
	e2e := now - fm.enqNs
	rec := obs.Record{
		Stream: st.id,
		Model:  st.model.Name,
		Seq:    fm.seq,
		//lint:ignore monotime flight records carry a wall-clock arrival time for operators
		Wall:     time.Now().Add(-time.Duration(e2e)),
		DecodeNs: fm.decodeNs,
		QueueNs:  fm.waitNs,
		ScoreNs:  d.ScoreNs,
		E2ENs:    e2e,
		Verdict:  d.Verdict,
	}
	s.flight.Add(rec)
}

// close closes the stream's sink, books its result among the newest
// resultsCap and folds its final counters into its model's books, in the
// same critical section that takes it out of the live table. Both come
// from stats, with the sink's sizes after Close (a compressing sink
// buffers until then) and the queue's count, final once the ingester is
// joined.
func (s *Server) close(st *stream, stats core.RunStats, runErr, ingestErr error) {
	closeErr := st.sink.Close()
	stats.RecBytes, stats.RecWindows = st.sink.BytesWritten(), st.sink.WindowsRecorded()
	stats.FullBytes = int64(traceio.HeaderSize()) + st.q.EventBytes()
	clean := ingestErr == nil && runErr == nil && closeErr == nil
	var errMsg string
	for _, e := range []error{runErr, closeErr, ingestErr} {
		if e == nil {
			continue
		}
		if errors.Is(e, os.ErrDeadlineExceeded) && s.isShuttingDown() {
			// Shutdown cut the stream: not clean, but not a failure.
			clean = false
			continue
		}
		errMsg = e.Error()
		clean = false
		break
	}
	final := books{
		Snapshot:  stats.Snapshot(),
		fullBytes: stats.FullBytes,
		dropped:   st.q.Counters().Dropped,
		closed:    1,
	}
	res := StreamResult{
		ID:              st.id,
		Model:           st.model.Name,
		Windows:         stats.Windows,
		GateTrips:       stats.GateTrips,
		Anomalies:       stats.Anomalies,
		RecordedWindows: stats.RecWindows,
		RecordedBytes:   stats.RecBytes,
		FullBytes:       stats.FullBytes,
		DroppedEvents:   final.dropped,
		SpanS:           (stats.End - stats.Start).Seconds(),
		Clean:           clean,
		Err:             errMsg,
	}
	s.mu.Lock()
	delete(s.live, st.id)
	s.closedBy[res.Model] = s.closedBy[res.Model].add(final)
	s.results = append(s.results, res)
	if n := len(s.results); n > resultsCap {
		s.results = s.results[n-resultsCap:]
	}
	s.mu.Unlock()
	s.log.Info("stream closed", "stream", res.ID, "model", res.Model,
		"windows", res.Windows, "anomalies", res.Anomalies,
		"recorded_bytes", res.RecordedBytes, "clean", clean)
}

// view reads one live stream's row; now and stallAfter feed the stall
// watchdog (a stallAfter of 0 or less never flags a stream).
func (st *stream) view(now int64, stallAfter time.Duration) StreamView {
	qc := st.q.Counters()
	pushNs, popNs := st.q.LastTimes()
	state := "active"
	if st.draining.Load() {
		state = "draining"
	}
	counters := st.mon.Snapshot()
	return StreamView{
		ID:               st.id,
		Model:            st.model.Name,
		State:            state,
		Since:            st.since,
		Counters:         counters,
		QueueDepth:       qc.Depth,
		EventsIngested:   qc.Ingested,
		EventsScored:     qc.Scored,
		DroppedEvents:    qc.Dropped,
		FullBytes:        int64(traceio.HeaderSize()) + st.q.EventBytes(),
		RecordedBytes:    counters.RecBytes,
		RecordedWindows:  counters.RecWindows,
		LastIngestAgeS:   obs.JSONFloat(float64(now-pushNs) / 1e9),
		LastProgressAgeS: obs.JSONFloat(float64(now-popNs) / 1e9),
		Stalled:          stallAfter > 0 && qc.Depth > 0 && now-popNs > int64(stallAfter),
	}
}

// books is a live stream's contribution to its model's books.
func (v StreamView) books() books {
	return books{
		Snapshot:  v.Counters,
		fullBytes: v.FullBytes,
		dropped:   v.DroppedEvents,
		live:      1,
	}
}

// snapshot reads the stream table once: every live stream's view, sorted
// by id, and the books per model over closed and live streams.
func (s *Server) snapshot() (views []StreamView, byModel map[string]books) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := obs.Now()
	views = make([]StreamView, 0, len(s.live))
	byModel = maps.Clone(s.closedBy)
	for _, st := range s.live {
		v := st.view(now, s.stallAfter)
		views = append(views, v)
		byModel[v.Model] = byModel[v.Model].add(v.books())
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	return views, byModel
}

// Stats assembles the live aggregate report (served by /stats). Safe to
// call at any time, including mid-serve. The shape predates multi-model
// serving and is kept byte-compatible: ModelPoints reports the current
// default model (per-model breakdowns live on /metrics).
func (s *Server) Stats() StatsReport {
	_, byModel := s.snapshot()
	var total books
	for _, b := range byModel {
		total = total.add(b)
	}
	rejUnknown := s.rejUnknown.Load()
	rep := StatsReport{
		Windows:              total.Windows,
		GateTrips:            total.GateTrips,
		LOFCalls:             total.LOFCalls,
		Anomalies:            total.Anomalies,
		RecordedWindows:      total.RecWindows,
		FullBytes:            total.fullBytes,
		RecordedBytes:        total.RecBytes,
		StreamsLive:          total.live,
		StreamsClosed:        total.closed,
		StreamsRejected:      s.rejHeader.Load() + rejUnknown + s.rejRegister.Load() + s.rejSink.Load(),
		RejectedUnknownModel: rejUnknown,
		DroppedEvents:        total.dropped,
		AnomalyIncidents:     s.anomIncidents.Load(),
		AnomalyStoreErrors:   s.anomStoreErrs.Load(),
		AnomalyInFlight:      s.anomInFlight.Load(),
		AlertTransitions:     s.alertPersisted.Load(),
		AlertStoreErrors:     s.alertPersistErrs.Load(),
		ModelPoints:          s.models.Default().Learned.Model.Len(),
		UptimeS:              obs.JSONFloat(time.Since(s.start).Seconds()),
	}
	if s.opts.Alerts != nil {
		rep.AlertsFiring = s.opts.Alerts.FiringStreams()
	}
	run := core.RunStats{FullBytes: rep.FullBytes, RecBytes: rep.RecordedBytes, RecWindows: int(rep.RecordedWindows)}
	if rf, ok := run.ReductionFactor(); ok {
		rep.ReductionFactor = &rf
	}
	return rep
}

// Streams lists the live streams with queue and sink counters, sorted by
// id (served by /streams).
func (s *Server) Streams() []StreamView {
	views, _ := s.snapshot()
	return views
}

// Results returns the final accounting of the newest resultsCap closed
// streams, in close order. Call after Serve returns (streams still live
// are not included); Stats counts every stream ever served.
func (s *Server) Results() []StreamResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StreamResult, len(s.results))
	copy(out, s.results)
	return out
}
