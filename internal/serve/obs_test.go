package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
)

// TestLoggerTimestamps pins the slog migration's headline fix: both log
// formats must stamp every line with wall-clock time. (The pre-slog
// logger was built with flag 0 — no timestamps — so serve logs could not
// be correlated with client logs or packet captures.)
func TestLoggerTimestamps(t *testing.T) {
	cfg, learned := fixture(t)
	year := time.Now().UTC().Format("2006")

	for _, format := range []string{"text", "json"} {
		var buf bytes.Buffer
		logger, err := NewLogger(&buf, format)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Options{Cfg: cfg, Learned: learned, Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		// A non-directory registry cannot reload; the failure is logged.
		if _, err := srv.Reload(); err == nil {
			t.Fatal("Reload on a non-directory registry succeeded")
		}
		line := strings.TrimSpace(buf.String())
		if line == "" {
			t.Fatalf("%s: reload failure logged nothing", format)
		}
		if !strings.Contains(line, "reload failed") {
			t.Fatalf("%s: log line %q does not mention the failure", format, line)
		}
		switch format {
		case "text":
			if !strings.Contains(line, "time="+year) {
				t.Fatalf("text log line has no timestamp: %q", line)
			}
		case "json":
			var rec struct {
				Time time.Time `json:"time"`
				Msg  string    `json:"msg"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("json log line does not parse: %q: %v", line, err)
			}
			if rec.Time.IsZero() {
				t.Fatalf("json log line has no timestamp: %q", line)
			}
		}
	}

	if _, err := NewLogger(&bytes.Buffer{}, "yaml"); err == nil {
		t.Fatal("NewLogger accepted an unknown format")
	}
}

// TestQueuePathZeroAlloc is the allocation gate for the one-event queue
// path: a PushBatch of one, a ReadBatch of one (with queue-wait
// observation and arrival tracking) and the decision-side drain must not
// allocate in steady state — latency accounting may not cost the event
// path its allocation-free property.
func TestQueuePathZeroAlloc(t *testing.T) {
	var pipe obs.Pipeline
	q := newEventQueue(64, Block, &pipe, 0)
	evs := []trace.Event{{TS: time.Millisecond, Type: 1, Arg: 64}}

	step := func() {
		q.PushBatch(evs, obs.Now(), 500)
		if _, err := pop1(q); err != nil {
			t.Fatal(err)
		}
		now := obs.Now()
		for _, a := range q.takeArrivals() {
			pipe.E2E.ObserveN(now-a.enqNs, a.n)
		}
	}
	step() // warm the cond/rings
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("instrumented push/pop/drain allocates %v/op, want 0", allocs)
	}
	if got := pipe.QueueWait.Snapshot().Count(); got == 0 {
		t.Error("queue-wait histogram observed nothing")
	}
	if got := pipe.E2E.Snapshot().Count(); got == 0 {
		t.Error("e2e histogram observed nothing")
	}
}

// TestWriteMetricsHistograms: the scrape must expose the four pipeline
// stage families as valid Prometheus histograms (the validator enforces
// bucket monotonicity and the +Inf == _count invariant), plus the runtime
// gauges and the stall gauge.
func TestWriteMetricsHistograms(t *testing.T) {
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned})
	if err != nil {
		t.Fatal(err)
	}
	pipe := srv.pipelineFor("default")
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * 10 * time.Microsecond
		pipe.Decode.Observe(d)
		pipe.QueueWait.Observe(d / 2)
		pipe.Score.Observe(d / 4)
		pipe.E2E.Observe(d * 2)
	}
	pipe.E2E.Observe(100 * time.Second) // lands in the overflow bin

	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if _, err := ValidatePrometheusText(buf.Bytes()); err != nil {
		t.Fatalf("scrape does not validate: %v", err)
	}
	for _, want := range []string{
		`# TYPE enduratrace_pipeline_decode_seconds histogram`,
		`# TYPE enduratrace_pipeline_queue_wait_seconds histogram`,
		`# TYPE enduratrace_pipeline_score_seconds histogram`,
		`# TYPE enduratrace_pipeline_e2e_seconds histogram`,
		`enduratrace_pipeline_e2e_seconds_bucket{model="default",le="+Inf"} 1001`,
		`enduratrace_pipeline_e2e_seconds_count{model="default"} 1001`,
		`enduratrace_streams_stalled 0`,
		`# TYPE enduratrace_goroutines gauge`,
		`# TYPE enduratrace_heap_alloc_bytes gauge`,
		`# TYPE enduratrace_gc_pause_seconds_total counter`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
}

// TestValidatePrometheusTextHistogramInvariants: the validator must
// reject expositions whose histogram families break the format's
// invariants, not just malformed lines.
func TestValidatePrometheusTextHistogramInvariants(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"non-cumulative buckets", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`, "not cumulative"},
		{"missing +Inf", `# TYPE h histogram
h_bucket{le="1"} 5
h_sum 1
h_count 5
`, "+Inf"},
		{"count mismatch", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 5
h_sum 1
h_count 7
`, "_count"},
		{"missing sum", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 5
h_count 5
`, "_sum"},
		{"duplicate bucket", `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`, "duplicate"},
	}
	for _, c := range cases {
		if _, err := ValidatePrometheusText([]byte(c.body)); err == nil ||
			!strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.wantErr)
		}
	}
	// A well-formed histogram with two label sets must pass.
	good := `# TYPE h histogram
h_bucket{model="a",le="1"} 2
h_bucket{model="a",le="+Inf"} 3
h_sum{model="a"} 1.5
h_count{model="a"} 3
h_bucket{le="+Inf",model="b"} 0
h_sum{model="b"} 0
h_count{model="b"} 0
`
	if n, err := ValidatePrometheusText([]byte(good)); err != nil || n != 7 {
		t.Fatalf("good histogram: n=%d err=%v", n, err)
	}
}

// TestDebugFlightEndpoint: the admin mux must serve the flight recorder's
// books and records, and 404 with an explanation when sampling is
// disabled. Also covers the pprof gate: the profile endpoints exist only
// with EnablePprof.
func TestDebugFlightEndpoint(t *testing.T) {
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.flight.Add(obs.Record{Stream: "s1", Model: "default", Seq: 256, E2ENs: 12345})

	ts := httptest.NewServer(srv.adminMux())
	defer ts.Close()

	var rep flightReport
	if err := getJSON(ts.URL+"/debug/flight", &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Every != DefaultFlightEvery || rep.Stats.Capacity != DefaultFlightCap {
		t.Fatalf("flight stats %+v, want every=%d cap=%d", rep.Stats, DefaultFlightEvery, DefaultFlightCap)
	}
	if len(rep.Records) != 1 || rep.Records[0].Stream != "s1" || rep.Records[0].E2ENs != 12345 {
		t.Fatalf("flight records %+v", rep.Records)
	}
	if body, err := getBody(ts.URL + "/debug/pprof/cmdline"); err != nil || len(body) == 0 {
		t.Fatalf("pprof cmdline: %v (%d bytes)", err, len(body))
	}

	// Disabled sampling: no recorder, endpoint explains itself; pprof off
	// by default.
	srvOff, err := New(Options{Cfg: cfg, Learned: learned, FlightEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if srvOff.Flight() != nil {
		t.Fatal("negative FlightEvery still built a recorder")
	}
	tsOff := httptest.NewServer(srvOff.adminMux())
	defer tsOff.Close()
	if _, err := getBody(tsOff.URL + "/debug/flight"); err == nil {
		t.Fatal("GET /debug/flight succeeded with sampling disabled")
	}
	if _, err := getBody(tsOff.URL + "/debug/pprof/cmdline"); err == nil {
		t.Fatal("pprof served without EnablePprof")
	}
}
