package alert

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// recordedSleep swaps the webhook's inter-retry wait for a recorder, so
// backoff schedules are asserted without wall-clock time.
func recordedSleep(sink *WebhookSink) *[]time.Duration {
	var waits []time.Duration
	sink.sleep = func(ctx context.Context, d time.Duration) error {
		waits = append(waits, d)
		return ctx.Err()
	}
	return &waits
}

func testNotification() Notification {
	return Notification{
		Kind: KindFiring, Stream: "s0", Model: "m0",
		Wall: selftestEpoch, GateDist: 2.5, LOF: 3.1, WindowIndex: 7, Trips: 3,
	}
}

func TestWebhookDeliversJSON(t *testing.T) {
	var got Notification
	var contentType string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		contentType = r.Header.Get("Content-Type")
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Errorf("decode: %v", err)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()

	sink := NewWebhookSink(srv.URL)
	if err := sink.Deliver(context.Background(), testNotification()); err != nil {
		t.Fatal(err)
	}
	if contentType != "application/json" {
		t.Fatalf("content type %q", contentType)
	}
	want := testNotification()
	if got.Stream != want.Stream || got.Kind != want.Kind || got.Trips != want.Trips {
		t.Fatalf("server saw %+v, want %+v", got, want)
	}
}

func TestWebhookRetriesServerErrorsWithBackoff(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "try later", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	sink := NewWebhookSink(srv.URL)
	waits := recordedSleep(sink)
	if err := sink.Deliver(context.Background(), testNotification()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server got %d calls, want 3", calls.Load())
	}
	// The backoff schedule doubles: base, then 2x.
	want := []time.Duration{webhookBackoff, 2 * webhookBackoff}
	if len(*waits) != len(want) || (*waits)[0] != want[0] || (*waits)[1] != want[1] {
		t.Fatalf("backoff schedule %v, want %v", *waits, want)
	}
}

func TestWebhookExhaustsRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "still broken", http.StatusInternalServerError)
	}))
	defer srv.Close()

	sink := NewWebhookSink(srv.URL)
	recordedSleep(sink)
	err := sink.Deliver(context.Background(), testNotification())
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if calls.Load() != 3 {
		t.Fatalf("server got %d calls, want 3 (1 + 2 retries)", calls.Load())
	}
	if !strings.Contains(err.Error(), "500") {
		t.Fatalf("error %q does not carry the status", err)
	}
}

func TestWebhookDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "bad payload", http.StatusBadRequest)
	}))
	defer srv.Close()

	sink := NewWebhookSink(srv.URL)
	recordedSleep(sink)
	if err := sink.Deliver(context.Background(), testNotification()); err == nil {
		t.Fatal("4xx reported success")
	}
	if calls.Load() != 1 {
		t.Fatalf("retried a 4xx: %d calls, want 1", calls.Load())
	}
}

func TestWebhookTimeoutCancelsAttemptTrain(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	sink := NewWebhookSink(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := sink.Deliver(ctx, testNotification())
	if err == nil {
		t.Fatal("timed-out delivery reported success")
	}
	// The deadline must cut the whole train short — no backoff wait.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("delivery took %v, want prompt cancellation", elapsed)
	}
	<-started // exactly one attempt reached the server
	select {
	case <-started:
		t.Fatal("cancelled delivery attempted again")
	default:
	}
}

func TestWebhookTruncatesOversizedResponses(t *testing.T) {
	big := strings.Repeat("x", 1<<20) // 1 MiB error body
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, big, http.StatusInternalServerError)
	}))
	defer srv.Close()

	sink := NewWebhookSink(srv.URL)
	recordedSleep(sink)
	err := sink.Deliver(context.Background(), testNotification())
	if err == nil {
		t.Fatal("5xx reported success")
	}
	// The error carries at most the bounded prefix, never the megabyte.
	if len(err.Error()) > webhookMaxBody+256 {
		t.Fatalf("error message is %d bytes — oversized body not truncated", len(err.Error()))
	}
	if !strings.Contains(err.Error(), "xxx") {
		t.Fatalf("error %q lost the body prefix", err)
	}
}

func TestWebhookTransportErrorRetries(t *testing.T) {
	// A server that closes immediately: connection refused on every
	// attempt is retryable up to the budget.
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	srv.Close() // now nothing listens at srv.URL

	sink := NewWebhookSink(srv.URL)
	waits := recordedSleep(sink)
	if err := sink.Deliver(context.Background(), testNotification()); err == nil {
		t.Fatal("refused connection reported success")
	}
	if len(*waits) != 2 {
		t.Fatalf("%d backoff waits, want 2 (transport errors retry)", len(*waits))
	}
}

// TestWebhookErrorsNeverBlockStateMachine wires a failing webhook into a
// full pipeline: scoring-side Observe stays non-blocking, errors land in
// the sink's books, and the state machine keeps transitioning.
func TestWebhookErrorsNeverBlockStateMachine(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	clk := newFakeClock(selftestEpoch)
	sink := NewWebhookSink(srv.URL)
	recordedSleep(sink)
	p := NewPipeline(Options{
		MinTrips: 1, ClearAfter: time.Minute,
		DeliveryTimeout: 5 * time.Second,
		Sinks:           []Sink{sink}, Clock: clk.now,
	})
	s := p.Register("s0", "m0")
	const incidents = 3
	for i := 0; i < incidents; i++ {
		clk.advance(time.Second)
		start := time.Now()
		s.Observe(Observation{Anomalous: true, GateDist: float64(i), LOF: 2})
		if took := time.Since(start); took > time.Second {
			t.Fatalf("Observe blocked %v behind a failing webhook", took)
		}
		clk.advance(time.Minute)
		s.Observe(Observation{})
	}
	s.Close()
	if !p.Drain(30 * time.Second) {
		t.Fatal("queue did not drain")
	}
	b := p.Books()
	if err := b.Balanced(); err != nil {
		t.Fatal(err)
	}
	if len(b.Sinks) != 1 || b.Sinks[0].Errors != 2*incidents || b.Sinks[0].Delivered != 0 {
		t.Fatalf("sink books %+v, want %d errors 0 delivered", b.Sinks, 2*incidents)
	}
	if b.Fired != incidents || b.Resolved != incidents {
		t.Fatalf("state machine stalled: fired/resolved %d/%d, want %d/%d", b.Fired, b.Resolved, incidents, incidents)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
