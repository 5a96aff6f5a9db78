package alert

import (
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/obs"
)

func TestTokenBucketModes(t *testing.T) {
	now := selftestEpoch.UnixNano()

	t.Run("unlimited", func(t *testing.T) {
		b := newTokenBucket(0, 0, now)
		for i := 0; i < 1000; i++ {
			if !b.take(now) {
				t.Fatal("unlimited bucket refused a take")
			}
		}
	})

	t.Run("fixed budget never refills", func(t *testing.T) {
		b := newTokenBucket(0, 3, now)
		for i := 0; i < 3; i++ {
			if !b.take(now) {
				t.Fatalf("take %d refused within budget", i)
			}
		}
		if b.take(now + int64(time.Hour)) {
			t.Fatal("fixed budget refilled")
		}
	})

	t.Run("classic refill", func(t *testing.T) {
		b := newTokenBucket(2, 2, now) // 2/s, burst 2
		if !b.take(now) || !b.take(now) {
			t.Fatal("burst refused")
		}
		if b.take(now) {
			t.Fatal("empty bucket granted a take")
		}
		if !b.take(now + int64(500*time.Millisecond)) {
			t.Fatal("no refill after 500ms at 2/s")
		}
		// Refill caps at burst: after an hour only 2 tokens, not 7200.
		later := now + int64(time.Hour)
		if !b.take(later) || !b.take(later) {
			t.Fatal("capped refill refused")
		}
		if b.take(later) {
			t.Fatal("refill exceeded burst")
		}
	})

	t.Run("burst defaults to rate", func(t *testing.T) {
		b := newTokenBucket(5, 0, now)
		for i := 0; i < 5; i++ {
			if !b.take(now) {
				t.Fatalf("take %d refused, want burst=rate=5", i)
			}
		}
		if b.take(now) {
			t.Fatal("6th take granted, want burst 5")
		}
	})

	// Streams read the clock before they contend for the bucket, so
	// readings arrive out of order. Over any sequence the bucket admits at
	// most burst + rate × (latest − earliest reading).
	t.Run("out-of-order readings refill once", func(t *testing.T) {
		const ms = int64(time.Millisecond)
		for _, offsets := range [][]int64{
			{0, 100, 0, 100},
			{0, 100, 0, 100, 0, 100, 0, 100},
			{50, 0, 100, 50, 150, 0, 200, 100},
		} {
			b := newTokenBucket(10, 1, now) // 10/s, burst 1
			admitted := 0
			latest := int64(0)
			for _, off := range offsets {
				latest = max(latest, off)
				if b.take(now + off*ms) {
					admitted++
				}
			}
			if limit := 1 + 10*float64(latest)/1e3; float64(admitted) > limit {
				t.Fatalf("readings %v ms: %d admitted, want at most %g", offsets, admitted, limit)
			}
		}
	})
}

func TestEmitBuckets(t *testing.T) {
	t.Run("queue overflow drops and counts", func(t *testing.T) {
		// A sink stuck in Deliver wedges the worker; the queue fills and
		// further transitions drop without blocking Observe.
		block := make(chan struct{})
		stuck := &funcSink{
			name: "stuck",
			deliver: func(ctx context.Context, _ Notification) error {
				select {
				case <-block:
				case <-ctx.Done():
				}
				return nil
			},
		}
		clk := newFakeClock(selftestEpoch)
		p := NewPipeline(Options{
			MinTrips: 1, ClearAfter: time.Minute,
			QueueLen: 2, DeliveryTimeout: time.Hour,
			Sinks: []Sink{stuck}, Clock: clk.now,
		})
		s := p.Register("s0", "m0")
		// First transition may be in-flight with the worker; the queue
		// holds 2 more; everything past 3 must drop.
		const transitions = 10
		for i := 0; i < transitions/2; i++ {
			clk.advance(time.Second)
			s.Observe(obs.Verdict{Anomalous: true, GateDist: float64(i), LOF: 2})
			clk.advance(time.Minute)
			s.Observe(obs.Verdict{})
		}
		// Drops are counted synchronously in Observe, so the books are
		// already final for the pre-queue buckets.
		b := p.Books()
		if b.QueueDropped < transitions-4 {
			t.Fatalf("queue dropped %d, want >= %d", b.QueueDropped, transitions-4)
		}
		if b.QueueDropped+b.Enqueued != transitions {
			t.Fatalf("dropped %d + enqueued %d != %d transitions", b.QueueDropped, b.Enqueued, transitions)
		}
		close(block)
		s.Close()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := p.Books().Balanced(); err != nil {
			t.Fatal(err)
		}
	})
}

// funcSink adapts closures to the Sink interface for tests.
type funcSink struct {
	name    string
	deliver func(context.Context, Notification) error
	closeFn func() error
}

func (f *funcSink) Name() string { return f.name }
func (f *funcSink) Deliver(ctx context.Context, n Notification) error {
	if f.deliver == nil {
		return nil
	}
	return f.deliver(ctx, n)
}
func (f *funcSink) Close() error {
	if f.closeFn == nil {
		return nil
	}
	return f.closeFn()
}

func TestSinkErrorsCountAndDoNotBlock(t *testing.T) {
	clk := newFakeClock(selftestEpoch)
	failing := &funcSink{
		name:    "failing",
		deliver: func(context.Context, Notification) error { return context.DeadlineExceeded },
	}
	p := NewPipeline(Options{
		MinTrips: 1, ClearAfter: time.Minute,
		Sinks: []Sink{failing}, Clock: clk.now,
	})
	s := p.Register("s0", "m0")
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
		s.Observe(obs.Verdict{Anomalous: true, GateDist: float64(i), LOF: 2})
		clk.advance(time.Minute)
		s.Observe(obs.Verdict{})
	}
	s.Close()
	if !p.Drain(5 * time.Second) {
		t.Fatal("queue did not drain")
	}
	b := p.Books()
	if err := b.Balanced(); err != nil {
		t.Fatal(err)
	}
	if len(b.Sinks) != 1 || b.Sinks[0].Errors != 6 || b.Sinks[0].Delivered != 0 {
		t.Fatalf("sink books = %+v, want 6 errors 0 delivered", b.Sinks)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseReturnsFirstSinkError(t *testing.T) {
	clk := newFakeClock(selftestEpoch)
	boom := &funcSink{name: "boom", closeFn: func() error { return context.Canceled }}
	p := NewPipeline(Options{Sinks: []Sink{boom}, Clock: clk.now})
	if err := p.Close(); err != context.Canceled {
		t.Fatalf("close = %v, want %v", err, context.Canceled)
	}
	// Idempotent: the same error again, sinks not re-closed.
	if err := p.Close(); err != context.Canceled {
		t.Fatalf("second close = %v, want %v", err, context.Canceled)
	}
}

func TestSnapshotRecentRingWraps(t *testing.T) {
	p, clk := newTestPipeline(t, Options{MinTrips: 1, ClearAfter: time.Minute})
	s := p.Register("s0", "m0")
	const incidents = recentCap/2 + 1 // two transitions more than the ring holds
	for i := 0; i < incidents; i++ {
		clk.advance(time.Second)
		s.Observe(obs.Verdict{Anomalous: true, GateDist: float64(i), LOF: 2, WindowIndex: 2 * i})
		clk.advance(time.Minute)
		s.Observe(obs.Verdict{WindowIndex: 2*i + 1})
	}
	s.Close()
	recent := p.Snapshot().Recent
	if len(recent) != recentCap {
		t.Fatalf("recent holds %d, want %d", len(recent), recentCap)
	}
	// Both transitions of an incident carry the arming window's index, so
	// incident 0 has wrapped out and the ring runs from incident 1's firing
	// to the last incident's resolution, oldest first.
	for j, n := range recent {
		wantKind, wantIdx := KindFiring, 2*(1+j/2)
		if j%2 == 1 {
			wantKind = KindResolved
		}
		if n.Kind != wantKind || n.Verdict.WindowIndex != wantIdx {
			t.Fatalf("recent[%d] = %v window %d, want %v window %d",
				j, n.Kind, n.Verdict.WindowIndex, wantKind, wantIdx)
		}
	}
}

func TestSlogSinkDelivers(t *testing.T) {
	var buf strings.Builder
	sink := NewSlogSink(slog.New(slog.NewTextHandler(&buf, nil)))
	n := Notification{Kind: KindFiring, Stream: "s0", Model: "m0", Verdict: obs.Verdict{GateDist: 2.5, LOF: 3}, Trips: 3}
	if err := sink.Deliver(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alert firing") || !strings.Contains(buf.String(), "s0") {
		t.Fatalf("log output %q missing alert line", buf.String())
	}
}

// TestNotificationMarshalNonFinite: gate distances are legitimately +Inf
// (disjoint distributions), but encoding/json refuses non-finite floats —
// the verdict's marshaler must map them to null instead of erroring out
// the whole payload, and the notification's own fields must survive it.
func TestNotificationMarshalNonFinite(t *testing.T) {
	n := Notification{
		Kind:    KindFiring,
		Stream:  "s",
		Model:   "m",
		Verdict: obs.Verdict{GateDist: math.Inf(1), LOF: math.NaN()},
		Trips:   3,
	}
	decode := func() (map[string]any, map[string]any) {
		t.Helper()
		b, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("notification failed to marshal: %v", err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("marshaled notification is not valid JSON: %v\n%s", err, b)
		}
		v, ok := m["verdict"].(map[string]any)
		if !ok {
			t.Fatalf("notification carries no verdict object: %s", b)
		}
		return m, v
	}
	m, v := decode()
	if v["gate_dist"] != nil || v["lof"] != nil {
		t.Fatalf("non-finite scores not null: gate_dist=%v lof=%v", v["gate_dist"], v["lof"])
	}
	if m["kind"] != "firing" || m["trips"] != 3.0 || m["stream"] != "s" {
		t.Fatalf("notification fields lost beside the verdict: %v", m)
	}
	// Finite values survive untouched through the verdict's marshaler.
	n.Verdict.GateDist, n.Verdict.LOF = 1.5, 3.25
	if _, v = decode(); v["gate_dist"] != 1.5 || v["lof"] != 3.25 {
		t.Fatalf("finite verdict fields mangled: %v", v)
	}
}
