package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/recorder"
	"enduratrace/internal/serve"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// record is one window the daemon handed to the bench's sink.
type record struct {
	index int   // the window's index in its stream
	at    int64 // when Record was entered
	durNs int64 // how long the sink behind the wrapper took
	bytes int64 // that sink's BytesWritten once it had
}

// drainTimeout bounds the wait for an alert pipeline's dispatch queue to
// empty once its streams have closed; the discarding sink takes no time.
const drainTimeout = 5 * time.Second

// sendBuffer is the client's socket send buffer: two default frames.
const sendBuffer = 2 * traceio.DefaultFrameBytes

// recordCap is the room a sink's log starts with: more than any workload
// records in a run at the seed commit, so the log does not grow (and move
// the heap reading) while the daemon is being measured.
const recordCap = 1 << 15

// timedSink is the bench's recorder.Sink wrapper, the only place the
// bench learns which windows were recorded and when. It runs on the
// stream's scoring goroutine; recs is read after Serve has returned.
type timedSink struct {
	recorder.Sink
	clk  clock
	recs []record
}

func (s *timedSink) Record(w window.Window) error {
	t := s.clk.Now()
	err := s.Sink.Record(w)
	s.recs = append(s.recs, record{index: w.Index, at: t, durNs: s.clk.Now() - t, bytes: s.Sink.BytesWritten()})
	return err
}

// discardAlerts is the alert sink of storm_persist: delivery is counted
// by the pipeline's books and costs nothing beyond them.
type discardAlerts struct{}

func (discardAlerts) Name() string                                      { return "discard" }
func (discardAlerts) Deliver(context.Context, alert.Notification) error { return nil }
func (discardAlerts) Close() error                                      { return nil }

// passResult is what one run of a workload through the daemon produced.
type passResult struct {
	wallS      float64
	events     int64 // events sent, all of them scored
	heapLiveMB float64
	gens       []*generator
	sinks      []*timedSink // by connection
	results    []serve.StreamResult
	stats      serve.StatsReport
	store      anomalystore.StoreStats
	alerts     alert.Books
	metrics    []byte // the daemon's /metrics text once every stream had closed
	blockedS   float64
	mallocs    uint64
	gcPauseMs  float64
	// From the 10 ms sampler of a traced pass: queue depth per stream and
	// sample, and the largest backlog (events sent minus events scored).
	depths     []float64
	backlogMax int64
}

// waitFor polls cond every millisecond until it holds or a minute has
// passed.
func waitFor(what string, cond func() bool) error {
	for give := time.Now().Add(time.Minute); !cond(); {
		if time.Now().After(give) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// runPass starts the daemon in-process, drives it over two loopback
// connections for the given time (and at least until every stream has
// covered the quality and replay prefixes; for exactly one lap when the
// time is 0), and collects what the public surfaces report. dir is a
// fresh directory for whatever the workload's daemon writes. With sample
// set, a goroutine polls Server.Streams() every 10 ms.
func runPass(in *inputs, seconds float64, dir string, sample bool) (out *passResult, err error) {
	clk := processClock
	// The first lap closes all of its windows but the last, which the end
	// of the stream closes if the run stops there, as a run of no seconds
	// does: it sends one whole lap.
	atLeast := int(in.spec.lap/in.win) - 1
	if seconds > 0 {
		atLeast = min(max(in.qualityWindows, in.replayN), atLeast)
	}
	res := &passResult{sinks: make([]*timedSink, connections)}

	inner := recorder.NullFactory()
	opts := serve.Options{Cfg: in.cfg, Learned: in.learned, Backpressure: serve.Block}
	if in.spec.persist {
		if inner, err = recorder.NewDirFactory(filepath.Join(dir, "rec"), -1); err != nil {
			return nil, err
		}
		var store *anomalystore.Store
		if store, err = anomalystore.Open(filepath.Join(dir, "store"), anomalystore.Options{}); err != nil {
			return nil, err
		}
		alerts := alert.NewPipeline(alert.Options{Sinks: []alert.Sink{discardAlerts{}}})
		opts.Anomalies, opts.Alerts = store, alerts
		// The server owns neither: both are closed once Serve has returned.
		defer func() {
			alerts.Drain(drainTimeout)
			res.alerts = alerts.Books()
			res.store = store.Stats()
			if cerr := errors.Join(alerts.Close(), store.Close()); err == nil && cerr != nil {
				out, err = nil, cerr
			}
		}()
	}
	var mu sync.Mutex
	opts.Sinks = func(id string) (recorder.Sink, error) {
		s, err := inner(id)
		if err != nil {
			return nil, err
		}
		for i, st := range in.streams {
			if st.name == id {
				ts := &timedSink{Sink: s, clk: clk, recs: make([]record, 0, recordCap)}
				mu.Lock()
				res.sinks[i] = ts
				mu.Unlock()
				return ts, nil
			}
		}
		return nil, fmt.Errorf("the daemon registered a stream %q the bench did not send", id)
	}

	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0", ""); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	stop := sync.OnceValue(func() error { cancel(); return <-served })
	defer func() { _ = stop() }() // error paths; the success path checks it below

	conns := make([]net.Conn, connections)
	defer func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close() // everything sent was acknowledged by the stream's clean close
			}
		}
	}()
	for i := range conns {
		if conns[i], err = net.Dial("tcp", srv.TraceAddr().String()); err != nil {
			return nil, err
		}
		// A fixed, small send buffer: without it the kernel grows the buffer
		// until it holds seconds of trace, a blocking write stops meaning
		// the daemon is behind, and the run outlasts its clock by however
		// long the buffered tail takes to score.
		if err := conns[i].(*net.TCPConn).SetWriteBuffer(sendBuffer); err != nil {
			return nil, err
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := clk.Now()
	deadline := t0 + int64(seconds*float64(time.Second))
	var wg sync.WaitGroup
	for i, st := range in.streams {
		g := &generator{st: st, clk: clk}
		res.gens = append(res.gens, g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if in.spec.paced {
				g.runPaced(conns[i], t0, deadline)
			} else {
				g.runClosed(conns[i], deadline, st.coverWindows(atLeast))
			}
		}()
	}
	gen := func(id string) *generator {
		for _, g := range res.gens {
			if g.st.name == id {
				return g
			}
		}
		return nil
	}

	sampled := make(chan struct{})
	stopSampler := make(chan struct{})
	go func() {
		defer close(sampled)
		if !sample {
			return
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
			}
			for _, v := range srv.Streams() {
				res.depths = append(res.depths, float64(v.QueueDepth))
				if g := gen(v.ID); g != nil {
					res.backlogMax = max(res.backlogMax, g.sentEvents.Load()-v.EventsScored)
				}
			}
		}
	}()
	endSampler := sync.OnceFunc(func() { close(stopSampler); <-sampled })
	defer endSampler()

	wg.Wait()
	for _, g := range res.gens {
		if g.err != nil {
			return nil, fmt.Errorf("stream %s: %w", g.st.name, g.err)
		}
		events, _ := g.st.sent(g.pos)
		res.events += int64(events)
		res.blockedS += float64(g.blockedNs) / 1e9
	}
	err = waitFor("the daemon to score every event sent", func() bool {
		views := srv.Streams()
		for _, v := range views {
			if g := gen(v.ID); g == nil || v.EventsScored < g.sentEvents.Load() {
				return false
			}
		}
		return len(views) == connections
	})
	if err != nil {
		return nil, err
	}

	// The heap is read with every event scored and the streams still open.
	// The collection it forces is the bench's doing and comes off the wall
	// time; so do the bytes of the bench's own record logs.
	tScored := clk.Now()
	heap := int64(liveHeap()) - int64(in.heapBase) - connections*recordCap*int64(unsafe.Sizeof(record{}))
	res.heapLiveMB = float64(heap) / (1 << 20)
	gcNs := clk.Now() - tScored

	for i, g := range res.gens {
		g.finish(conns[i])
		if g.err != nil {
			return nil, fmt.Errorf("stream %s: %w", g.st.name, g.err)
		}
	}
	err = waitFor("every stream to close", func() bool {
		st := srv.Stats()
		return st.StreamsLive == 0 && st.StreamsClosed == connections
	})
	res.wallS = float64(clk.Now()-t0-gcNs) / 1e9
	endSampler()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	var text bytes.Buffer
	if err := srv.WriteMetrics(&text); err != nil {
		return nil, err
	}
	res.metrics = text.Bytes()
	res.stats = srv.Stats()
	if err := stop(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	res.results = srv.Results()
	return res, nil
}
