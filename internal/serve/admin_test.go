package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/traceio"
)

// TestWriteJSONUnencodable: a value JSON cannot encode (here +Inf) answers
// 500 with a JSON body that decodes and names the failure, not the
// handler's status with an empty body; an encodable value keeps its
// status.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct {
		V float64 `json:"v"`
	}{math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("body %q (%v), want a JSON error naming the unsupported value", rec.Body.String(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusNotFound, struct {
		V float64 `json:"v"`
	}{1.5})
	if rec.Code != http.StatusNotFound || strings.TrimSpace(rec.Body.String()) != "{\n  \"v\": 1.5\n}" {
		t.Fatalf("status %d body %q, want 404 and the value", rec.Code, rec.Body.String())
	}
}

// TestAdminJSONRoutes GETs every JSON route the admin mux registers off a
// daemon with an anomaly store, an alert pipeline and the flight recorder,
// while one perturbed stream stays connected. Every route must answer 200
// with valid JSON. A stream's first window trips the gate at an infinite
// distance (core.Decision), so the incident it persists and the alert it
// fires carry a non-finite gate_dist, which must go out as null: a
// non-finite float that reaches encoding/json turns the whole body into
// writeJSON's 500.
func TestAdminJSONRoutes(t *testing.T) {
	cfg, learned := fixture(t)
	store, err := anomalystore.Open(t.TempDir(), anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	alerts := alert.NewPipeline(alert.Options{
		TripOnGate: true,
		MinTrips:   1,
		ClearAfter: time.Hour,
		Sinks:      []alert.Sink{&testAlertSink{}},
	})
	defer alerts.Close()
	srv, err := New(Options{Cfg: cfg, Learned: learned, Anomalies: store, Alerts: alerts, FlightEvery: 16})
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

	evs := simEvents(t, 301, 4*time.Second, 3)
	conn, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriter(conn, "json-routes")
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
	for {
		views := srv.Streams()
		if len(views) == 1 && views[0].EventsScored == int64(len(evs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for every sent event to be scored")
		}
		time.Sleep(5 * time.Millisecond)
	}

	nulls := 0
	for _, route := range []string{
		"/healthz", "/streams", "/stats", "/anomalies", "/anomalies?seq=1", "/alerts", "/debug/flight",
	} {
		resp, err := http.Get(base + route)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", route, err)
		}
		if resp.StatusCode != http.StatusOK || !json.Valid(body) {
			t.Errorf("GET %s: %s, valid JSON %v: %s", route, resp.Status, json.Valid(body), body)
		}
		nulls += strings.Count(string(body), `"gate_dist": null`)
	}
	if nulls == 0 {
		t.Error("no route served a gate_dist as null, though the first window trips at +Inf")
	}

	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}
