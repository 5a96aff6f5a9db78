package serve

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
	"enduratrace/internal/window"
)

// fakeIncidents is an incidentStore whose durability the test releases:
// Submit numbers records from 1, and WaitDurable announces the sequence
// number it waits for on waits, then returns what the test sends on
// release. Every field is touched only by the goroutine calling the trip
// recorder; the test reads them after a channel operation orders it.
type fakeIncidents struct {
	submitted uint64
	waits     chan uint64
	release   chan error
}

func (f *fakeIncidents) Submit(anomalystore.Incident) (uint64, error) {
	f.submitted++
	return f.submitted, nil
}

func (f *fakeIncidents) WaitDurable(seq uint64) error {
	f.waits <- seq
	return <-f.release
}

// TestTripRecorderKeepsEightInFlight drives one stream's trip recorder
// with a store that makes nothing durable until told to: the first eight
// trips return without waiting, every later trip is written
// and then waits for the oldest unsettled one, incidents are booked
// oldest first, a failed fsync books one error and logs one line per
// stream, and settle leaves persisted + failed == trips with nothing in
// flight.
func TestTripRecorderKeepsEightInFlight(t *testing.T) {
	cfg, learned := fixture(t)
	var logBuf bytes.Buffer
	srv, err := New(Options{Cfg: cfg, Learned: learned, Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	if err != nil {
		t.Fatal(err)
	}
	rec := srv.newTripRecorder(openTest(t, srv, "trips", ""))
	fake := &fakeIncidents{waits: make(chan uint64), release: make(chan error)}
	rec.store = fake
	// The depth the power-cut promise in DESIGN.md is stated for, spelled
	// out rather than read from tripsInFlight so a change to it fails here.
	const depth = 8

	// trip sends tripped window i through the recorder on a goroutine of
	// its own; the channel closes when onDecision returns.
	trip := func(i int) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := rec.onDecision(core.Decision{Verdict: obs.Verdict{WindowIndex: i, GateTripped: true}, Window: window.Window{Index: i}}); err != nil {
				t.Error(err)
			}
		}()
		return done
	}
	checkBooks := func(when string, incidents, errs, inFlight int64) {
		t.Helper()
		st := srv.Stats()
		if st.AnomalyIncidents != incidents || st.AnomalyStoreErrors != errs || st.AnomalyInFlight != inFlight {
			t.Fatalf("%s: booked %d incidents, %d errors, %d in flight; want %d, %d, %d", when,
				st.AnomalyIncidents, st.AnomalyStoreErrors, st.AnomalyInFlight, incidents, errs, inFlight)
		}
	}

	for i := 1; i <= depth; i++ {
		done := trip(i)
		select {
		case <-done:
		case seq := <-fake.waits:
			t.Fatalf("trip %d waited for record %d with only %d unsettled", i, seq, i-1)
		}
	}
	checkBooks("after the first trips", 0, 0, depth)

	const trips = depth + 4
	failSeqs := map[uint64]bool{2: true, 7: true}
	var incidents, errs int64
	// settleNext expects the recorder to wait for want, releases it (as a
	// failure if want is in failSeqs) and counts what that books.
	settleNext := func(want uint64) {
		t.Helper()
		if got := <-fake.waits; got != want {
			t.Fatalf("recorder waits for record %d, want %d (oldest first)", got, want)
		}
		if failSeqs[want] {
			fake.release <- errors.New("fsync failed")
			errs++
		} else {
			fake.release <- nil
			incidents++
		}
	}
	for i := depth + 1; i <= trips; i++ {
		done := trip(i)
		oldest := uint64(i - depth)
		settleNext(oldest)
		if fake.submitted != uint64(i) {
			t.Fatalf("trip %d waited before its own record was written (%d submitted)", i, fake.submitted)
		}
		<-done
		checkBooks(fmt.Sprintf("trip %d", i), incidents, errs, depth)
		if oldest == 2 && strings.Count(logBuf.String(), "anomaly store append failed") != 1 {
			t.Fatalf("first failure logged %q, want one line", logBuf.String())
		}
	}

	settled := make(chan struct{})
	go func() {
		defer close(settled)
		rec.settle()
	}()
	for seq := uint64(trips - depth + 1); seq <= trips; seq++ {
		settleNext(seq)
	}
	<-settled
	checkBooks("after settle", trips-2, 2, 0)
	if n := strings.Count(logBuf.String(), "anomaly store append failed"); n != 1 {
		t.Fatalf("%d failure lines logged for one stream, want 1:\n%s", n, logBuf.String())
	}
}

// BenchmarkTripRecorder sends decisions through one stream's trip
// recorder into a real anomaly store in a temporary directory: per op two
// quiet windows (the incident's context) and one trip, with no scoring in
// between, so what a trip costs is mostly how long the recorder waits for
// the disk. The store's own appends are BenchmarkStoreAppendParallel in
// internal/anomalystore.
func BenchmarkTripRecorder(b *testing.B) {
	cfg, learned := fixture(b)
	store, err := anomalystore.Open(b.TempDir(), anomalystore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Options{Cfg: cfg, Learned: learned, Anomalies: store})
	if err != nil {
		b.Fatal(err)
	}
	st, err := srv.register("bench", "")
	if err != nil {
		b.Fatal(err)
	}
	rec := srv.newTripRecorder(st)
	evs := make([]trace.Event, 8)
	for i := range evs {
		evs[i] = trace.Event{TS: time.Duration(i) * time.Millisecond, Type: trace.EventType(i % 4), Arg: uint64(i)}
	}
	decide := func(i int, tripped bool) {
		d := core.Decision{Verdict: obs.Verdict{WindowIndex: i, GateTripped: tripped}, Window: window.Window{Index: i, Events: evs}}
		if err := rec.onDecision(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide(3*i, false)
		decide(3*i+1, false)
		decide(3*i+2, true)
	}
	rec.settle()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/trip")
	ss := store.Stats()
	b.ReportMetric(float64(ss.SyncedRecords)/float64(ss.Syncs), "records/fsync")
	if got := srv.anomIncidents.Load(); got != int64(b.N) {
		b.Fatalf("%d incidents booked for %d trips", got, b.N)
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}
