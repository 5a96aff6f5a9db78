package serve

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
)

// testAlertSink captures every delivered notification in-process.
type testAlertSink struct {
	mu    sync.Mutex
	notes []alert.Notification
	n     atomic.Int64
}

func (s *testAlertSink) Name() string { return "capture" }
func (s *testAlertSink) Deliver(_ context.Context, n alert.Notification) error {
	s.mu.Lock()
	s.notes = append(s.notes, n)
	s.mu.Unlock()
	s.n.Add(1)
	return nil
}
func (s *testAlertSink) Close() error { return nil }

// TestSelftestAlertPipelineEndToEnd wires the alerting pipeline into real
// selftest traffic with an anomaly store attached: perturbed streams must
// fire incidents, every transition must balance in the books (selftest
// asserts alert.Books.Balanced), reach the capture sink, and land in the
// anomaly store as window-free records the gate-trip incidents ride
// alongside. The final scrape, which selftest validates as Prometheus
// text, must carry the store's fsync histogram, the four stage histograms
// and every alerting family at once.
func TestSelftestAlertPipelineEndToEnd(t *testing.T) {
	cfg, learned := fixture(t)
	store, err := anomalystore.Open(t.TempDir(), anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sink := &testAlertSink{}
	alerts := alert.NewPipeline(alert.Options{
		MinTrips:   1, // every anomalous window opens an incident
		ClearAfter: time.Millisecond,
		QueueLen:   4096,
		Sinks:      []alert.Sink{sink},
	})
	rep := selftest(t, selftestOptions{
		Cfg:       cfg,
		Learned:   learned,
		Clients:   4,
		Duration:  8 * time.Second,
		Factor:    3,
		Anomalies: store,
		Alerts:    alerts,
	})
	b := rep.Alerts
	if b == nil {
		t.Fatal("selftest report carries no alert books")
	}
	if b.Fired == 0 {
		t.Fatal("perturbed selftest fired no alerts; increase Factor or Duration")
	}
	if b.Fired != b.Resolved {
		t.Fatalf("closed streams left incidents open: fired %d, resolved %d", b.Fired, b.Resolved)
	}
	// Rate limiting is off, the queue is deep: every transition must have
	// reached the sink.
	if got := sink.n.Load(); got != b.Fired+b.Resolved {
		t.Fatalf("sink saw %d notifications, pipeline emitted %d", got, b.Fired+b.Resolved)
	}
	if rep.Stats.AlertTransitions != b.Fired+b.Resolved {
		t.Fatalf("persisted %d transitions, emitted %d", rep.Stats.AlertTransitions, b.Fired+b.Resolved)
	}

	// The store holds both record kinds; alert records are window-free and
	// carry the firing/resolved marker.
	var alertRecs, tripRecs int64
	r, err := anomalystore.OpenReader(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Walk(func(inc *anomalystore.Incident) error {
		if inc.Alert != "" {
			alertRecs++
		} else {
			tripRecs++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if alertRecs != rep.Stats.AlertTransitions {
		t.Fatalf("store holds %d alert records, server persisted %d", alertRecs, rep.Stats.AlertTransitions)
	}
	if tripRecs != rep.Stats.AnomalyIncidents {
		t.Fatalf("store holds %d gate-trip records, server persisted %d", tripRecs, rep.Stats.AnomalyIncidents)
	}

	want := []string{
		"# TYPE enduratrace_anomaly_store_sync_seconds histogram",
		`enduratrace_anomaly_store_sync_seconds_bucket{le="+Inf"}`,
		`enduratrace_alerts_delivered_total{sink="capture"}`,
	}
	for _, fam := range []string{"decode", "queue_wait", "score", "e2e"} {
		want = append(want,
			fmt.Sprintf("# TYPE enduratrace_pipeline_%s_seconds histogram", fam),
			fmt.Sprintf(`enduratrace_pipeline_%s_seconds_bucket{model="default",le="+Inf"}`, fam))
	}
	for _, fam := range []string{"fired_total", "resolved_total", "delivered_total",
		"delivery_errors_total", "rate_limited_global_total",
		"queue_dropped_total", "enqueued_total", "queue_depth", "firing"} {
		want = append(want, "# TYPE enduratrace_alerts_"+fam+" ")
	}
	for _, w := range want {
		if !bytes.Contains(rep.Metrics, []byte(w)) {
			t.Errorf("scrape is missing %q", w)
		}
	}
	if !regexp.MustCompile(`(?m)^enduratrace_alerts_fired_total\{model="default"\} [1-9]`).Match(rep.Metrics) {
		t.Error("scrape shows no fired alert for the default model")
	}

	if err := alerts.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAlertsEndpointAndMetrics drives the admin surface of a live server
// with a pipeline attached: GET /alerts serves the snapshot, /metrics
// carries the enduratrace_alerts_* families, and a server without a
// pipeline 404s /alerts with an explanation.
func TestAlertsEndpointAndMetrics(t *testing.T) {
	cfg, learned := fixture(t)
	alerts := alert.NewPipeline(alert.Options{
		Sinks: []alert.Sink{&testAlertSink{}},
	})
	defer alerts.Close()
	srv, err := New(Options{Cfg: cfg, Learned: learned, Alerts: alerts})
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

	// Drive some transitions straight through the pipeline so the
	// endpoint has material (streams registered out-of-band behave the
	// same as served ones).
	s := alerts.Register("manual-0", "default")
	s.Observe(alert.Observation{Anomalous: true, GateDist: 1.5, LOF: 3})
	s.Observe(alert.Observation{Anomalous: true, GateDist: 1.5, LOF: 3})
	s.Observe(alert.Observation{Anomalous: true, GateDist: 1.5, LOF: 3})
	if s.State() != alert.StateFiring {
		t.Fatalf("stream state %v after MinTrips observations", s.State())
	}

	var snap alert.Snapshot
	if err := getJSON(base+"/alerts", &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Books.Fired != 1 {
		t.Fatalf("endpoint books show %d fired, want 1", snap.Books.Fired)
	}
	if len(snap.Streams) != 1 || snap.Streams[0].State != "firing" {
		t.Fatalf("endpoint streams %+v, want one firing", snap.Streams)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Kind != alert.KindFiring {
		t.Fatalf("endpoint recent %+v, want one firing notification", snap.Recent)
	}

	stats := srv.Stats()
	if stats.AlertsFiring != 1 {
		t.Fatalf("/stats alerts_firing %d, want 1", stats.AlertsFiring)
	}

	body, err := getBody(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheusText(body); err != nil {
		t.Fatalf("metrics with alert families not valid Prometheus text: %v", err)
	}
	for _, want := range []string{
		`enduratrace_alerts_fired_total{model="default"} 1`,
		`enduratrace_alerts_delivered_total{sink="capture"}`,
		`enduratrace_alerts_rate_limited_global_total 0`,
		`enduratrace_alerts_queue_dropped_total 0`,
		`enduratrace_alerts_firing 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	s.Close()

	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}

	// No pipeline: /alerts is a clean 404 with an explanation.
	bare, err := New(Options{Cfg: cfg, Learned: learned})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	serveErr2 := make(chan error, 1)
	go func() { serveErr2 <- bare.Serve(ctx2) }()
	if err := getJSON("http://"+bare.AdminAddr().String()+"/alerts", new(map[string]any)); err == nil {
		t.Fatal("pipeline-less server served /alerts")
	}
	cancel2()
	if err := <-serveErr2; err != nil {
		t.Fatal(err)
	}
}
