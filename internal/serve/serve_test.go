package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/perturb"
	"enduratrace/internal/recorder"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// learnFixture fits a small model from a short clean simulation; shared by
// every serve test via sync.Once (learning dominates test wall time).
var (
	fixtureOnce    sync.Once
	fixtureCfg     core.Config
	fixtureLearned *core.Learned
	fixtureErr     error
)

func fixture(t testing.TB) (core.Config, *core.Learned) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := core.NewConfig(mediasim.NumEventTypes)
		sc := mediasim.DefaultConfig()
		sc.Duration = 30 * time.Second
		sc.Seed = 42
		sim, err := mediasim.New(sc)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureCfg = cfg
		fixtureLearned, fixtureErr = core.Learn(cfg, sim)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureCfg, fixtureLearned
}

// countEvents streams a deterministic simulation and returns its events.
func simEvents(t *testing.T, seed int64, d time.Duration, factor float64) []trace.Event {
	t.Helper()
	sc := mediasim.DefaultConfig()
	sc.Duration = d
	sc.Seed = seed
	if factor > 1 {
		load, err := perturb.Periodic(factor, d/4, d/2, d/10, d)
		if err != nil {
			t.Fatal(err)
		}
		sc.Load = load
	}
	sim, err := mediasim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ReadAll(sim)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// expectWindows counts the windows the server-side windower will emit for
// evs, including the final flush.
func expectWindows(t *testing.T, cfg core.Config, evs []trace.Event) int64 {
	t.Helper()
	var n int64
	err := window.Stream(trace.NewSliceReader(evs), cfg.NewWindower(), func(wins []window.Window) error {
		n += int64(len(wins))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSelftestEndToEnd is the acceptance check: 8 clients over real
// loopback sockets against one shared Learned, graceful shutdown flushes
// every sink, and the /stats JSON totals equal the per-client window
// counts. selftest itself fails on any mismatch; the test re-asserts the
// headline equalities explicitly.
func TestSelftestEndToEnd(t *testing.T) {
	cfg, learned := fixture(t)
	rep := selftest(t, selftestOptions{
		Cfg:      cfg,
		Learned:  learned,
		Clients:  8,
		Duration: 8 * time.Second,
		Factor:   3,
	})
	if len(rep.PerClient) != 8 || len(rep.Results) != 8 {
		t.Fatalf("per-client=%d results=%d, want 8 each", len(rep.PerClient), len(rep.Results))
	}
	var sent int64
	for _, c := range rep.PerClient {
		if c.Windows == 0 || c.Events == 0 {
			t.Fatalf("client %s sent nothing: %+v", c.Stream, c)
		}
		sent += c.Windows
	}
	if rep.Stats.Windows != sent {
		t.Fatalf("/stats windows %d != %d windows sent", rep.Stats.Windows, sent)
	}
	if rep.Stats.StreamsClosed != 8 || rep.Stats.StreamsLive != 0 {
		t.Fatalf("streams closed=%d live=%d, want 8/0", rep.Stats.StreamsClosed, rep.Stats.StreamsLive)
	}
	if rep.Stats.Anomalies == 0 {
		t.Fatal("perturbed selftest streams produced no anomalies")
	}
	for _, res := range rep.Results {
		if !res.Clean {
			t.Fatalf("stream %s not clean: %s", res.ID, res.Err)
		}
		if res.DroppedEvents != 0 {
			t.Fatalf("stream %s dropped %d events under Block backpressure", res.ID, res.DroppedEvents)
		}
	}
}

// closeTrackingSink wraps a sink and records whether Close was called.
type closeTrackingSink struct {
	recorder.Sink
	closed *sync.Map
	id     string
}

func (s *closeTrackingSink) Close() error {
	s.closed.Store(s.id, true)
	return s.Sink.Close()
}

// TestGracefulShutdownFlushesSinks connects N clients, sends their whole
// streams WITHOUT the end-of-stream marker (so the connections stay open,
// mid-stream), waits until the server has scored everything sent, then
// cancels the serve context — the SIGINT path. Every sink must be flushed
// and closed, and the /stats totals must equal what the clients sent.
func TestGracefulShutdownFlushesSinks(t *testing.T) {
	cfg, learned := fixture(t)
	const clients = 4

	var closed sync.Map
	dir := t.TempDir()
	dirFactory, err := recorder.NewDirFactory(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(id string) (recorder.Sink, error) {
		inner, err := dirFactory(id)
		if err != nil {
			return nil, err
		}
		closed.Store(id, false)
		return &closeTrackingSink{Sink: inner, closed: &closed, id: id}, nil
	}

	srv, err := New(Options{Cfg: cfg, Learned: learned, Sinks: factory})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	// Each client sends a perturbed stream and flushes, but never sends
	// the end marker: from the server's view the streams are mid-flight.
	var wantWindows, wantEvents int64
	var conns []net.Conn
	for i := 0; i < clients; i++ {
		evs := simEvents(t, int64(200+i), 6*time.Second, 3)
		wantWindows += expectWindows(t, cfg, evs)
		wantEvents += int64(len(evs))
		conn, err := net.Dial("tcp", srv.TraceAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		fw, err := traceio.NewFrameWriter(conn, fmt.Sprintf("cut-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := fw.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	// Wait until the server has ingested AND scored every event the
	// clients sent — compared against the known send-side count, so a
	// momentary queue quiescence while the kernel socket buffers still
	// hold unread events cannot end the poll early.
	adminURL := "http://" + srv.AdminAddr().String()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var views []StreamView
		if err := getJSON(adminURL+"/streams", &views); err == nil && len(views) == clients {
			var scored, ingested int64
			for _, v := range views {
				scored += v.EventsScored
				ingested += v.EventsIngested
			}
			if ingested == wantEvents && scored == wantEvents {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not catch up with sent events within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// SIGINT-equivalent: cancel the serve context mid-stream.
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v", err)
	}

	results := srv.Results()
	if len(results) != clients {
		t.Fatalf("%d stream results, want %d", len(results), clients)
	}
	var gotWindows int64
	var recBytes int64
	for _, res := range results {
		gotWindows += int64(res.Windows)
		recBytes += res.RecordedBytes
		if res.Err != "" {
			t.Fatalf("stream %s reported error %q on shutdown", res.ID, res.Err)
		}
		if res.Clean {
			t.Fatalf("stream %s reported clean close but was cut by shutdown", res.ID)
		}
	}
	if gotWindows != wantWindows {
		t.Fatalf("server scored %d windows across streams, clients sent %d", gotWindows, wantWindows)
	}
	stats := srv.Stats()
	if stats.Windows != wantWindows {
		t.Fatalf("/stats windows %d, want %d", stats.Windows, wantWindows)
	}
	if stats.StreamsClosed != clients || stats.StreamsLive != 0 {
		t.Fatalf("streams closed=%d live=%d, want %d/0", stats.StreamsClosed, stats.StreamsLive, clients)
	}

	// Every sink must have been closed, and the on-disk bytes must match
	// the reported recorded bytes (flushed, not buffered).
	nSinks := 0
	closed.Range(func(_, v any) bool {
		nSinks++
		if !v.(bool) {
			t.Error("a sink was not closed on shutdown")
		}
		return true
	})
	if nSinks != clients {
		t.Fatalf("%d sinks created, want %d", nSinks, clients)
	}
	var onDisk int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if onDisk != recBytes {
		t.Fatalf("on-disk recorded bytes %d != reported %d (sinks not flushed)", onDisk, recBytes)
	}
	if stats.RecordedBytes != recBytes {
		t.Fatalf("/stats recorded bytes %d != per-stream sum %d", stats.RecordedBytes, recBytes)
	}
}

// TestDropOldestBackpressure force-feeds a tiny queue with a paused scorer
// by holding many events hostage... simpler: QueueLen 16 with DropOldest
// and a fast sender on a slow (exact-kernel) model still drops under
// load; assert the drop counter surfaces and the books stay consistent
// (scored + dropped == ingested).
func TestDropOldestBackpressure(t *testing.T) {
	cfg, learned := fixture(t)
	srv, err := New(Options{
		Cfg:          cfg,
		Learned:      learned,
		QueueLen:     16,
		Backpressure: DropOldest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	evs := simEvents(t, 77, 20*time.Second, 1)
	conn, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriter(conn, "firehose")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := fw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	// Wait for the stream to drain and close.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := srv.Stats(); st.StreamsLive == 0 && st.StreamsClosed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream did not close within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	results := srv.Results()
	if len(results) != 1 {
		t.Fatalf("%d results, want 1", len(results))
	}
	res := results[0]
	if !res.Clean {
		t.Fatalf("stream not clean: %s", res.Err)
	}
	// Under DropOldest nothing may be unaccounted: every ingested event was
	// either scored (became part of a window) or counted as dropped.
	want := expectWindows(t, cfg, evs)
	if res.DroppedEvents == 0 {
		// A fast machine may keep up; that is fine, but then nothing may
		// be missing at all.
		if int64(res.Windows) != want {
			t.Fatalf("no drops but %d windows != %d sent", res.Windows, want)
		}
	} else if int64(res.Windows) > want {
		t.Fatalf("scored %d windows > %d sent", res.Windows, want)
	}
	t.Logf("drop-oldest: %d events dropped, %d/%d windows", res.DroppedEvents, res.Windows, want)
}

// failingSink records its first after windows, then errors on every
// Record, simulating a full disk.
type failingSink struct {
	recorder.Sink
	after int
}

func (s *failingSink) Record(w window.Window) error {
	if s.WindowsRecorded() >= s.after {
		return fmt.Errorf("disk full")
	}
	return s.Sink.Record(w)
}

// TestSinkErrorDoesNotDeadlock: when the scorer dies on a sink error, the
// ingest goroutine must not stay parked forever in a Block-policy Push —
// the stream must close (with the error on record) and shutdown must
// still complete. Regression test for the queue-close-after-Run fix. The
// failed stream's books still balance: its result and /stats count the
// same decisions, the ones every consumer took, and every gate trip
// counted reached the anomaly store.
func TestSinkErrorDoesNotDeadlock(t *testing.T) {
	cfg, learned := fixture(t)
	cfg.Alpha = 1.0 // record every scored window, and fail on the fourth
	store, err := anomalystore.Open(t.TempDir(), anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Options{
		Cfg:     cfg,
		Learned: learned,
		// A tiny queue so the ingester is certainly blocked in Push when
		// the scorer exits.
		QueueLen:     8,
		Backpressure: Block,
		Sinks: func(string) (recorder.Sink, error) {
			return &failingSink{Sink: recorder.NewNullSink(), after: 3}, nil
		},
		Anomalies: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.drainWait = 2 * time.Second
	if err := srv.Listen("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	evs := simEvents(t, 55, 10*time.Second, 1)
	conn, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriter(conn, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	fw.FrameBytes = 1024 // many small frames so the server sees data early
	for _, ev := range evs {
		if err := fw.Write(ev); err != nil {
			break // server may close the connection once the stream dies
		}
	}
	fw.Close() // best effort; the conn may already be gone

	deadline := time.Now().Add(15 * time.Second)
	for len(srv.Results()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream did not close after sink error (ingest deadlock?)")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res := srv.Results()[0]
	if res.Clean || !strings.Contains(res.Err, "disk full") {
		t.Fatalf("result %+v, want unclean close with the sink error", res)
	}
	if res.Anomalies != 3 || res.RecordedWindows != 3 {
		t.Fatalf("result %+v, want the 3 anomalies the sink recorded before it failed", res)
	}
	st := srv.Stats()
	if st.Windows != int64(res.Windows) || st.GateTrips != int64(res.GateTrips) || st.Anomalies != int64(res.Anomalies) ||
		st.RecordedWindows != int64(res.RecordedWindows) {
		t.Fatalf("/stats %+v disagrees with the stream's result %+v", st, res)
	}
	if st.GateTrips != st.AnomalyIncidents+st.AnomalyStoreErrors+st.AnomalyInFlight {
		t.Fatalf("%d gate trips, the store books %d incidents + %d errors + %d in flight",
			st.GateTrips, st.AnomalyIncidents, st.AnomalyStoreErrors, st.AnomalyInFlight)
	}
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel (shutdown deadlock)")
	}
}

// blockingSink holds every Record until release is closed: a scorer
// wedged on its sink, the case the stall watchdog exists to flag.
type blockingSink struct {
	recorder.Sink
	release <-chan struct{}
}

func (s *blockingSink) Record(w window.Window) error {
	<-s.release
	return s.Sink.Record(w)
}

// TestStallWatchdog: a stream whose scorer is wedged while its queue holds
// events is flagged stalled on /streams and counted by the
// enduratrace_streams_stalled gauge; once the scorer moves again both
// clear, with the stream still live.
func TestStallWatchdog(t *testing.T) {
	cfg, learned := fixture(t)
	cfg.Alpha = 1.0 // record, and so wedge, on the first scored window
	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	srv, err := New(Options{
		Cfg:      cfg,
		Learned:  learned,
		QueueLen: 64,
		Sinks: func(string) (recorder.Sink, error) {
			return &blockingSink{Sink: recorder.NewNullSink(), release: release}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.stallAfter = 50 * time.Millisecond
	if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()
	admin := "http://" + srv.AdminAddr().String()

	evs := simEvents(t, 7, 5*time.Second, 1)
	conn, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriter(conn, "wedged")
	if err != nil {
		t.Fatal(err)
	}
	fw.FrameBytes = 1024
	sent := make(chan error, 1)
	go func() {
		for _, ev := range evs {
			if err := fw.Write(ev); err != nil {
				sent <- err
				return
			}
		}
		sent <- fw.Flush()
	}()

	watch := func(stalled bool) {
		t.Helper()
		want := "0"
		if stalled {
			want = "1"
		}
		gauge := regexp.MustCompile(`(?m)^enduratrace_streams_stalled ` + want + `$`)
		deadline := time.Now().Add(15 * time.Second)
		for {
			var views []StreamView
			if err := getJSON(admin+"/streams", &views); err != nil {
				t.Fatal(err)
			}
			body, err := getBody(admin + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			if len(views) == 1 && views[0].Stalled == stalled && gauge.Match(body) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("streams %+v and gauge %q never showed stalled=%t", views, gauge, stalled)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	watch(true)
	free()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	watch(false)

	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(srv.Results()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream did not close after its end-of-stream marker")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if res := srv.Results(); len(res) != 1 || !res[0].Clean || res[0].RecordedWindows == 0 {
		t.Fatalf("results %+v, want one clean stream that recorded windows", res)
	}
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

// TestRejectsGarbageConnection: a connection that is not a framed trace
// stream is rejected without registering a stream.
func TestRejectsGarbageConnection(t *testing.T) {
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	conn, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(strings.Repeat("not a trace ", 10))); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	time.Sleep(50 * time.Millisecond)
	stats := srv.Stats()
	if stats.StreamsLive != 0 || stats.StreamsClosed != 0 {
		t.Fatalf("garbage connection registered a stream: %+v", stats)
	}
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

// TestSilentClientIsDropped: a client that connects and never sends a
// header is closed by the server once the header deadline passes — its
// goroutine goes away and the refusal is on the books — while a stream
// that did send one may then idle past that deadline.
func TestSilentClientIsDropped(t *testing.T) {
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned})
	if err != nil {
		t.Fatal(err)
	}
	srv.headerWait = 100 * time.Millisecond
	if err := srv.Listen("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	// A well-behaved stream first: header, then silence.
	quiet, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	fw, err := traceio.NewFrameWriter(quiet, "quiet")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().StreamsLive != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the stream that sent its header never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	baseline := runtime.NumGoroutine()

	silent, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := silent.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Fatalf("silent connection still open after the header deadline: read %d bytes, err %v", n, err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := srv.Stats()
		if st.StreamsRejected == 1 && runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the refusal: %d rejected streams (want 1), %d goroutines (baseline %d)",
				st.StreamsRejected, runtime.NumGoroutine(), baseline)
		}
	}
	var metrics bytes.Buffer
	if err := srv.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if want := `enduratrace_streams_rejected_total{reason="header"} 1`; !strings.Contains(metrics.String(), want) {
		t.Fatalf("scrape lacks %q", want)
	}
	if st := srv.Stats(); st.StreamsLive != 1 {
		t.Fatalf("the idle stream did not outlive the header deadline: %+v", st)
	}

	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

// TestDirFactoryNamesFollowStreams: the per-stream sink files carry the
// client-chosen stream names.
func TestDirFactoryNamesFollowStreams(t *testing.T) {
	cfg, learned := fixture(t)
	dir := filepath.Join(t.TempDir(), "rec")
	factory, err := recorder.NewDirFactory(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	rep := selftest(t, selftestOptions{
		Cfg:      cfg,
		Learned:  learned,
		Clients:  2,
		Duration: 6 * time.Second,
		Factor:   3,
		Sinks:    factory,
	})
	if rep.Stats.RecordedWindows == 0 {
		t.Fatal("perturbed selftest recorded nothing")
	}
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("selftest-%02d.etrc", i))
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("per-stream sink file missing: %v", err)
		}
	}
}

// TestTimestampWrapClosesOnlyItsStream: a client whose first event sits
// next to math.MaxInt64 and whose next delta wraps the timestamp gets its
// stream closed with the error, while a stream beside it scores normally
// and no goroutine outlives the server. The event at the edge of the time
// axis once hung the scoring goroutine in the windower, queueing windows
// until the process ran out of memory.
func TestTimestampWrapClosesOnlyItsStream(t *testing.T) {
	cfg, learned := fixture(t)
	baseline := runtime.NumGoroutine()
	srv, err := New(Options{Cfg: cfg, Learned: learned})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	edge, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	fw, err := traceio.NewFrameWriter(edge, "edge")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	// One frame: an event at MaxInt64-1, then a delta of 2, then the
	// end-of-stream marker.
	body := append(binary.AppendUvarint(nil, math.MaxInt64-1), 1, 1, 0, 2, 1, 1, 0)
	if _, err := edge.Write(append(append(binary.AppendUvarint(nil, uint64(len(body))), body...), 0)); err != nil {
		t.Fatal(err)
	}

	evs := simEvents(t, 61, 5*time.Second, 1)
	fine, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fine.Close()
	fw, err = traceio.NewFrameWriter(fine, "fine")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := fw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	for deadline := time.Now().Add(10 * time.Second); len(srv.Results()) < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 streams closed: a scoring goroutine is stuck", len(srv.Results()))
		}
	}
	byID := map[string]StreamResult{}
	for _, r := range srv.Results() {
		byID[r.ID] = r
	}
	want := "traceio: reading frame event dts: timestamp overflows int64"
	if r := byID["edge"]; r.Clean || r.Err != want || r.Windows != 1 ||
		r.FullBytes != int64(traceio.HeaderSize()+traceio.EncodedSize(trace.Event{TS: math.MaxInt64 - 1, Type: 1, Arg: 1}, 0, true)) {
		t.Fatalf("edge stream closed as %+v, want one window, the first event's bytes and error %q", r, want)
	}
	if r := byID["fine"]; !r.Clean || r.Err != "" || int64(r.Windows) != expectWindows(t, cfg, evs) {
		t.Fatalf("the stream beside it closed as %+v, want clean with %d windows", r, expectWindows(t, cfg, evs))
	}

	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after shutdown, %d before the server started", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestStatsReductionNeedsARecordedWindow: the daemon rates reduction by
// core.RunStats' rule, so one that recorded no window reports no
// reduction (null on /stats), though its sinks wrote their header bytes;
// one that recorded anomalies keeps its ratio.
func TestStatsReductionNeedsARecordedWindow(t *testing.T) {
	cfg, learned := fixture(t)
	for _, alpha := range []float64{1000, cfg.Alpha} {
		run := cfg
		run.Alpha = alpha
		srv, err := New(Options{Cfg: run, Learned: learned})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ctx) }()
		adminURL := "http://" + srv.AdminAddr().String()
		opts := selftestOptions{Duration: 8 * time.Second, Factor: 3}
		if _, err := runClient(srv.TraceAddr().String(), "cam", run, "", opts, 100, nil); err != nil {
			t.Fatal(err)
		}
		if err := awaitClosedStreams(ctx, adminURL, 1); err != nil {
			t.Fatal(err)
		}
		body, err := getBody(adminURL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		st := srv.Stats()
		cancel()
		if err := <-serveErr; err != nil {
			t.Fatal(err)
		}

		if alpha == 1000 {
			if st.RecordedWindows != 0 || st.ReductionFactor != nil || string(raw["reduction_factor"]) != "null" {
				t.Fatalf("α 1000: %d windows recorded in %d bytes, reduction %v, /stats reduction_factor %s; want 0 windows and null",
					st.RecordedWindows, st.RecordedBytes, st.ReductionFactor, raw["reduction_factor"])
			}
			continue
		}
		want := float64(st.FullBytes) / float64(st.RecordedBytes)
		if st.Anomalies == 0 || st.RecordedWindows == 0 || st.ReductionFactor == nil || *st.ReductionFactor != want {
			t.Fatalf("α %g: %d anomalies, %d windows recorded, reduction %v; want %g",
				alpha, st.Anomalies, st.RecordedWindows, st.ReductionFactor, want)
		}
	}
}

// TestStatsMidStreamBufferedSink: a file sink counts only the bytes that
// have left its write buffer, so a live stream can have recorded windows
// while its recorded bytes still read 0. /stats must then still decode,
// with no reduction rather than FullBytes/0.
func TestStatsMidStreamBufferedSink(t *testing.T) {
	cfg, learned := fixture(t)
	factory, err := recorder.NewDirFactory(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Cfg: cfg, Learned: learned, Sinks: factory})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	// A perturbed stream, flushed but not ended, so its sink stays open.
	evs := simEvents(t, 300, 6*time.Second, 3)
	conn, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriter(conn, "buffered")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := fw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for views := srv.Streams(); len(views) != 1 || views[0].EventsScored != int64(len(evs)); views = srv.Streams() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for every sent event to be scored")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	if st.RecordedWindows == 0 || st.RecordedBytes != 0 {
		t.Fatalf("%d windows recorded in %d counted bytes; want windows still in the sink's buffer, nothing to test",
			st.RecordedWindows, st.RecordedBytes)
	}
	body, err := getBody("http://" + srv.AdminAddr().String() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("/stats with %d windows buffered does not decode: %v (body %q)", st.RecordedWindows, err, body)
	}
	if st.ReductionFactor != nil || string(raw["reduction_factor"]) != "null" {
		t.Fatalf("reduction %v, /stats reduction_factor %s; want nil and null", st.ReductionFactor, raw["reduction_factor"])
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}
