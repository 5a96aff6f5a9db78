package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/recorder"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// TestSinkFactoryFailureCounted: a stream refused because its recorder
// sink cannot be built must land in the rejection books — before the
// accounting split, only unknown-model refusals were counted and sink
// failures vanished from /stats entirely.
func TestSinkFactoryFailureCounted(t *testing.T) {
	cfg, learned := fixture(t)
	sinkErr := errors.New("disk full")
	srv, err := New(Options{
		Cfg:     cfg,
		Learned: learned,
		Sinks:   func(string) (recorder.Sink, error) { return nil, sinkErr },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	// The client must name a model that resolves (v1 header → default) so
	// registration succeeds and the refusal comes from the sink factory;
	// the observable behaviour is the same — the server closes the stream.
	conn, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriter(conn, "sinkless")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server did not close the sink-refused stream (read err %v)", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for srv.rejSink.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sink-factory failure never counted")
		}
		time.Sleep(time.Millisecond)
	}
	stats := srv.Stats()
	if stats.StreamsLive != 0 || stats.StreamsClosed != 0 {
		t.Fatalf("sink-refused stream registered: %+v", stats)
	}
	if stats.StreamsRejected == 0 {
		t.Fatalf("sink failure missing from StreamsRejected: %+v", stats)
	}
	if got := stats.StreamsRejected - stats.RejectedUnknownModel; got < 1 {
		t.Fatalf("sink failure folded into unknown-model count: %+v", stats)
	}
	body, err := getBody("http://" + srv.AdminAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `enduratrace_streams_rejected_total{reason="sink"} 1`) {
		t.Fatalf("metrics missing the sink rejection:\n%s", body)
	}

	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

// TestSelftestAnomalyStoreReplayRoundTrip is the PR's acceptance loop in
// miniature: selftest traffic with an attached anomaly store (segments
// small enough to force rotation), then a Replay of the captured store
// under the very model that scored it live. Every recorded verdict must
// reproduce exactly — same windows, same model, same floats — so the
// replay reports zero lost and zero new detections, and the incident
// count matches the server's gate-trip count.
func TestSelftestAnomalyStoreReplayRoundTrip(t *testing.T) {
	cfg, learned := fixture(t)
	dir := t.TempDir()
	store, err := anomalystore.Open(dir, anomalystore.Options{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rep := selftest(t, selftestOptions{
		Cfg:           cfg,
		Learned:       learned,
		Clients:       4,
		Duration:      8 * time.Second,
		Factor:        3,
		Anomalies:     store,
		RejectClients: 1, // the rejection books ride along
	})
	// selftest already asserted AnomalyIncidents == GateTrips and zero
	// store errors; the replay below needs actual material.
	if rep.Stats.GateTrips == 0 {
		t.Fatal("selftest tripped no gates; increase Factor or Duration")
	}
	st := store.Stats()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Segments < 2 {
		t.Fatalf("store kept %d incidents in %d segment(s); rotation never exercised", st.Appended, st.Segments)
	}

	models := []*core.NamedModel{{Name: "default", Cfg: cfg, Learned: learned}}
	rr, err := anomalystore.Replay(dir, models, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rr.Incidents) != rep.Stats.AnomalyIncidents {
		t.Fatalf("replay saw %d incidents, server persisted %d", rr.Incidents, rep.Stats.AnomalyIncidents)
	}
	if rr.TruncatedSegments != 0 {
		t.Fatalf("cleanly closed store reports %d truncated segments", rr.TruncatedSegments)
	}
	mr := rr.Models[0]
	if mr.Incidents != rr.Incidents {
		t.Fatalf("model replayed %d of %d incidents", mr.Incidents, rr.Incidents)
	}
	if mr.Lost != 0 || mr.NewDetections != 0 {
		t.Fatalf("same-model replay drifted: %d lost, %d new of %d", mr.Lost, mr.NewDetections, mr.Incidents)
	}
	wantDetected := 0
	for _, v := range mr.Verdicts {
		if float64(v.LOF) != v.Recorded.LOF {
			t.Fatalf("incident %d: replay LOF %v != recorded %v (same model, same window)",
				v.Seq, v.LOF, v.Recorded.LOF)
		}
		if v.Recorded.Anomalous {
			wantDetected++
		}
	}
	if mr.StillDetected != wantDetected || mr.StillClear != mr.Incidents-wantDetected {
		t.Fatalf("verdict tally %d detected + %d clear, want %d + %d",
			mr.StillDetected, mr.StillClear, wantDetected, mr.Incidents-wantDetected)
	}

	// The what-if knob: an impossibly high alpha must lose every recorded
	// anomaly, an alpha of ~0 must flag everything.
	high, err := anomalystore.Replay(dir, models, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if high.Models[0].StillDetected != 0 || high.Models[0].Lost != wantDetected {
		t.Fatalf("alpha=1e9 replay: %+v, want all %d recorded anomalies lost",
			high.Models[0], wantDetected)
	}
}

// TestIncidentWindowsMatchSentTrace: the monitor lends each window from
// the batch it read, and the trip recorder keeps the quiet ones as an
// incident's context. Every window of every stored incident — context and
// tripped window alike — must be, event for event, the window the client
// sent, however the ingest path batched the stream.
func TestIncidentWindowsMatchSentTrace(t *testing.T) {
	cfg, learned := fixture(t)
	dir := t.TempDir()
	store, err := anomalystore.Open(dir, anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := selftestOptions{
		Cfg:       cfg,
		Learned:   learned,
		Clients:   3,
		Duration:  8 * time.Second,
		Factor:    3,
		Anomalies: store,
	}
	rep := selftest(t, opts)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	sent := make(map[string][]window.Window) // by stream: the windows the client sent
	for i := 0; i < opts.Clients; i++ {
		sim, err := clientSim(opts, 100+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if sent[fmt.Sprintf("selftest-%02d", i)], err = window.Collect(sim, cfg.NewWindower()); err != nil {
			t.Fatal(err)
		}
	}

	r, err := anomalystore.OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var incidents, context int
	_, err = r.Walk(func(inc *anomalystore.Incident) error {
		incidents++
		context += len(inc.Windows) - 1
		ws := sent[inc.Stream]
		for _, got := range inc.Windows {
			if got.Index < 0 || got.Index >= len(ws) {
				return fmt.Errorf("incident %d: window %d of stream %s, which sent %d", inc.Seq, got.Index, inc.Stream, len(ws))
			}
			want := ws[got.Index]
			if got.Start != want.Start || got.End != want.End || len(got.Events) != len(want.Events) {
				return fmt.Errorf("incident %d: window %d is [%v, %v) with %d events, sent [%v, %v) with %d",
					inc.Seq, got.Index, got.Start, got.End, len(got.Events), want.Start, want.End, len(want.Events))
			}
			for j, e := range want.Events {
				g := got.Events[j]
				if g.TS != e.TS || g.Type != e.Type || g.Arg != e.Arg || !bytes.Equal(g.Payload, e.Payload) {
					return fmt.Errorf("incident %d: window %d event %d is %v, sent %v", inc.Seq, got.Index, j, g, e)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(incidents) != rep.Stats.GateTrips || context == 0 {
		t.Fatalf("store holds %d incidents with %d context windows for %d gate trips", incidents, context, rep.Stats.GateTrips)
	}
}

// TestAnomaliesEndpoint drives GET /anomalies against a live server with a
// store attached: the listing reflects the books, a seq fetch returns the
// incident with its context windows, and a bogus seq is a clean 404.
func TestAnomaliesEndpoint(t *testing.T) {
	cfg, learned := fixture(t)
	dir := t.TempDir()
	store, err := anomalystore.Open(dir, anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rep := selftest(t, selftestOptions{
		Cfg:       cfg,
		Learned:   learned,
		Clients:   2,
		Duration:  6 * time.Second,
		Factor:    3,
		Anomalies: store,
	})
	if rep.Stats.AnomalyIncidents == 0 {
		t.Fatal("no incidents persisted; nothing to serve")
	}

	// The selftest server is gone; stand up a fresh one sharing the store
	// to exercise the endpoint (recovery path included: the store was not
	// closed, the segments are unsealed).
	srv, err := New(Options{Cfg: cfg, Learned: learned, Anomalies: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()
	base := "http://" + srv.AdminAddr().String()

	var listing struct {
		Store     anomalystore.StoreStats     `json:"store"`
		Incidents int64                       `json:"incidents"`
		Recent    []anomalystore.IncidentMeta `json:"recent"`
	}
	if err := getJSON(base+"/anomalies", &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Store.Incidents != rep.Stats.AnomalyIncidents {
		t.Fatalf("endpoint lists %d incidents, selftest persisted %d",
			listing.Store.Incidents, rep.Stats.AnomalyIncidents)
	}
	if len(listing.Recent) == 0 {
		t.Fatal("recent ring empty after selftest appends")
	}

	seq := listing.Recent[len(listing.Recent)-1].Seq
	var detail struct {
		anomalystore.IncidentMeta
		ContextWindows []struct {
			Index  int     `json:"index"`
			StartS float64 `json:"start_s"`
			EndS   float64 `json:"end_s"`
			Events int     `json:"events"`
		} `json:"context_windows"`
	}
	if err := getJSON(fmt.Sprintf("%s/anomalies?seq=%d", base, seq), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Seq != seq || len(detail.ContextWindows) == 0 {
		t.Fatalf("incident detail for seq %d: %+v", seq, detail)
	}

	if err := getJSON(base+"/anomalies?seq=99999999", new(map[string]any)); err == nil {
		t.Fatal("bogus seq served an incident")
	}

	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

// TestLastTripDurableWhileStreamStaysOpen: the trip recorder keeps its
// newest incidents in flight — written, not yet waited for — until later
// trips or the end of the stream. Those records must reach the disk
// anyway: a stream that trips and then goes quiet, still connected, shows
// every trip under the store's durable mark without another call, the
// daemon's books balance with exactly min(trips, 8) in flight, and closing
// the stream settles them. The scrape carries the in-flight gauge and the
// group-commit families.
func TestLastTripDurableWhileStreamStaysOpen(t *testing.T) {
	cfg, learned := fixture(t)
	store, err := anomalystore.Open(t.TempDir(), anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Options{Cfg: cfg, Learned: learned, Anomalies: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	// A perturbed stream, flushed but not ended: the server sees a live
	// connection that has simply stopped sending.
	evs := simEvents(t, 300, 6*time.Second, 3)
	conn, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriter(conn, "quiet-after-trip")
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
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("every sent event to be scored", func() bool {
		views := srv.Streams()
		return len(views) == 1 && views[0].EventsScored == int64(len(evs))
	})
	trips := srv.Stats().GateTrips
	if trips == 0 {
		t.Fatal("the perturbed stream tripped no gate; nothing to test")
	}
	waitFor("the last trip to become durable with nobody waiting for it", func() bool {
		st := store.Stats()
		return st.Appended == trips && st.DurableSeq == st.LastSeq
	})
	open := srv.Stats()
	if got := open.AnomalyIncidents + open.AnomalyStoreErrors + open.AnomalyInFlight; got != trips {
		t.Fatalf("books with the stream open: %d incidents + %d errors + %d in flight, want %d gate trips",
			open.AnomalyIncidents, open.AnomalyStoreErrors, open.AnomalyInFlight, trips)
	}
	if want := min(trips, 8); open.AnomalyInFlight != want {
		t.Fatalf("%d incidents in flight with the stream open, want %d", open.AnomalyInFlight, want)
	}

	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheusText(buf.Bytes()); err != nil {
		t.Fatalf("scrape does not validate: %v", err)
	}
	st := store.Stats()
	for _, want := range []string{
		"# TYPE enduratrace_anomaly_store_sync_seconds histogram",
		fmt.Sprintf("enduratrace_anomaly_store_sync_seconds_count %d", st.Syncs),
		fmt.Sprintf("enduratrace_anomaly_store_syncs_total %d", st.Syncs),
		fmt.Sprintf("enduratrace_anomaly_store_synced_records_total %d", st.SyncedRecords),
		"enduratrace_anomaly_store_sync_errors_total 0",
		fmt.Sprintf("enduratrace_anomaly_incidents_in_flight %d", open.AnomalyInFlight),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("scrape is missing %q", want)
		}
	}

	// End the stream: the in-flight incident is settled before the
	// stream's result is published.
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor("the stream to close", func() bool { return len(srv.Results()) == 1 })
	if stats := srv.Stats(); stats.AnomalyIncidents != stats.GateTrips || stats.AnomalyStoreErrors != 0 || stats.AnomalyInFlight != 0 {
		t.Fatalf("after the stream closed: %d incidents for %d trips, %d store errors, %d in flight",
			stats.AnomalyIncidents, stats.GateTrips, stats.AnomalyStoreErrors, stats.AnomalyInFlight)
	}
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}
