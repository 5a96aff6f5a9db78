package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// nonBatchReader hides SliceReader's ReadBatch, so Run reads it as
// one-event batches — what a plain trace.Reader (the .etrc file reader)
// gets.
type nonBatchReader struct{ r *trace.SliceReader }

func (n nonBatchReader) Next() (trace.Event, error) { return n.r.Next() }

// tornFrameReader serves evs as a framed stream of small frames that
// arrives one byte at a time, so every frame is torn across reads and
// ReadBatch hands Run one frame's events (a fraction of a window) per
// batch.
func tornFrameReader(t *testing.T, evs []trace.Event) trace.Reader {
	t.Helper()
	var buf bytes.Buffer
	fw, err := traceio.NewFrameWriter(&buf, "s")
	if err != nil {
		t.Fatal(err)
	}
	fw.FrameBytes = 48
	for _, ev := range evs {
		if err := fw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := traceio.NewFrameReader(iotest.OneByteReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// decisionLog captures the fields of every decision, with features
// cloned (the originals alias reusable buffers).
type decisionLog struct {
	gateDist float64
	tripped  bool
	lof      float64
	anom     bool
	start    time.Duration
	features []float64
}

// perturbedRun splices an anomalous segment into a clean trace so a run
// exercises quiet gates, trips, and anomalies alike.
func perturbedRun() []trace.Event {
	var run []trace.Event
	run = append(run, synth(0, time.Second, refWeights, 2)...)
	run = append(run, synth(time.Second, 1200*time.Millisecond, []float64{0, 1, 10, 10}, 3)...)
	run = append(run, synth(1200*time.Millisecond, 3*time.Second, refWeights, 4)...)
	return run
}

// runOutcome is everything Run lets a caller observe.
type runOutcome struct {
	log    []decisionLog
	stats  RunStats
	sunk   []int // indexes of the windows the sink recorded
	timers int   // score-timer calls
	err    error
}

var errBoom = errors.New("boom")

// observeRun drives one Monitor.Run over r, failing the decision callback
// at its abortAt-th call (0 = never). It checks, per window, that the score
// timer has fired exactly once for it before its onDecision.
func observeRun(t *testing.T, cfg Config, learned *Learned, r trace.Reader, abortAt int) runOutcome {
	t.Helper()
	mon, err := NewMonitor(cfg, learned)
	if err != nil {
		t.Fatal(err)
	}
	var out runOutcome
	mon.SetScoreTimer(func(d time.Duration) {
		if d < 0 {
			t.Errorf("score timer reported %v", d)
		}
		out.timers++
	})
	sink := newMemSink()
	out.stats, out.err = mon.Run(r, sink, func(d Decision) error {
		out.log = append(out.log, decisionLog{
			gateDist: d.GateDist,
			tripped:  d.GateTripped,
			lof:      d.LOF,
			anom:     d.Anomalous,
			start:    d.Window.Start,
			features: append([]float64(nil), d.Features...),
		})
		if out.timers != len(out.log) {
			t.Errorf("decision %d: score timer has fired %d times, want once per window before its onDecision",
				len(out.log), out.timers)
		}
		if len(out.log) == abortAt {
			return errBoom
		}
		return nil
	})
	for _, w := range sink.Windows {
		out.sunk = append(out.sunk, w.Index)
	}
	return out
}

// checkRunContract is the contract of Run's single loop: however the
// events are batched — one at a time, in full SliceReader batches, or by
// a FrameReader over torn frames — the decision log (features included),
// RunStats, sink contents, callback order and abort point are the same,
// bit for bit.
func checkRunContract(t *testing.T, cfg Config, abortAt int) {
	t.Helper()
	learned, err := Learn(cfg, trace.NewSliceReader(synth(0, 2*time.Second, refWeights, 1)))
	if err != nil {
		t.Fatal(err)
	}
	run := perturbedRun()

	want := observeRun(t, cfg, learned, nonBatchReader{trace.NewSliceReader(run)}, abortAt)
	if abortAt == 0 {
		if want.err != nil {
			t.Fatal(want.err)
		}
		if want.stats.Anomalies == 0 || want.stats.GateTrips <= want.stats.Anomalies {
			t.Fatalf("reference run too tame to be a useful oracle: %+v", want.stats)
		}
	} else if !errors.Is(want.err, errBoom) || len(want.log) != abortAt {
		t.Fatalf("one-event batches: aborted after %d decisions with %v, want %d and boom",
			len(want.log), want.err, abortAt)
	}

	for name, r := range map[string]trace.Reader{
		"full batches": trace.NewSliceReader(run),
		"torn frames":  tornFrameReader(t, run),
	} {
		got := observeRun(t, cfg, learned, r, abortAt)
		if !errors.Is(got.err, want.err) {
			t.Fatalf("%s: Run returned %v, one-event batches %v", name, got.err, want.err)
		}
		if got.stats != want.stats {
			t.Fatalf("%s: RunStats %+v != one-event batches' %+v", name, got.stats, want.stats)
		}
		if got.timers != want.timers {
			t.Fatalf("%s: %d score-timer calls, one-event batches %d", name, got.timers, want.timers)
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("%s: %d decisions, one-event batches %d", name, len(got.log), len(want.log))
		}
		for i := range want.log {
			w, g := want.log[i], got.log[i]
			if g.start != w.start || g.gateDist != w.gateDist || g.tripped != w.tripped ||
				math.Float64bits(g.lof) != math.Float64bits(w.lof) || g.anom != w.anom {
				t.Fatalf("%s: decision %d differs: %+v vs one-event batches' %+v", name, i, g, w)
			}
			for j := range w.features {
				if g.features[j] != w.features[j] {
					t.Fatalf("%s: decision %d feature %d differs: %v vs %v", name, i, j, g.features[j], w.features[j])
				}
			}
		}
		if len(got.sunk) != len(want.sunk) {
			t.Fatalf("%s: sink recorded %d windows, one-event batches %d", name, len(got.sunk), len(want.sunk))
		}
		for i := range want.sunk {
			if got.sunk[i] != want.sunk[i] {
				t.Fatalf("%s: sink window %d: index %d vs %d", name, i, got.sunk[i], want.sunk[i])
			}
		}
	}
}

// TestRunBatchedMatchesPerEvent: the contract on the default
// configuration.
func TestRunBatchedMatchesPerEvent(t *testing.T) {
	checkRunContract(t, testConfig(), 0)
}

// TestRunBatchedCallbackAbort: a failing decision callback aborts the run
// at the same window, with the same partial RunStats and sink contents,
// however many later windows the batch had already judged.
func TestRunBatchedCallbackAbort(t *testing.T) {
	checkRunContract(t, testConfig(), 7)
}

// decisionDigest folds a decision sequence into a count and a hash of
// every field a decision carries, so two long runs can be compared
// without keeping either. It allocates nothing.
type decisionDigest struct {
	n int
	h uint64
}

func (g *decisionDigest) mix(v uint64) { g.h = (g.h ^ v) * 1099511628211 }

func (g *decisionDigest) add(d Decision) {
	g.n++
	g.mix(uint64(d.Window.Index))
	g.mix(uint64(d.Window.Start))
	g.mix(uint64(d.Window.End))
	g.mix(uint64(len(d.Window.Events)))
	g.mix(math.Float64bits(d.GateDist))
	g.mix(math.Float64bits(d.LOF))
	for _, f := range d.Features {
		g.mix(math.Float64bits(f))
	}
	if d.GateTripped {
		g.mix(1)
	}
	if d.Anomalous {
		g.mix(2)
	}
}

// TestRunLongGapBoundedMemory: a timestamp gap is windowed and judged in
// chunks, so its memory does not grow with its length. One event six
// hours after the last is 1.08 M empty 20 ms windows; judging them all
// before emitting any once took 1.2 GB of allocations. The decisions are
// those of feeding the same events one at a time through Add and Drain.
func TestRunLongGapBoundedMemory(t *testing.T) {
	cfg := testConfig()
	learned, err := Learn(cfg, trace.NewSliceReader(synth(0, 2*time.Second, refWeights, 1)))
	if err != nil {
		t.Fatal(err)
	}
	run := perturbedRun()
	after := run[len(run)-1].TS + 6*time.Hour
	run = append(run, synth(after, after+time.Second, refWeights, 5)...)

	mon, err := NewMonitor(cfg, learned)
	if err != nil {
		t.Fatal(err)
	}
	var got decisionDigest
	var before, peak runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stats, err := mon.Run(trace.NewSliceReader(run), nil, func(d Decision) error {
		got.add(d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&peak)
	if grew := peak.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("a 6 h gap allocated %d MB, want a bounded few", grew>>20)
	}
	if grew := int64(peak.HeapSys) - int64(before.HeapSys); grew > 8<<20 {
		t.Errorf("a 6 h gap grew the heap by %d MB, want a bounded few", grew>>20)
	}

	ref, err := NewMonitor(cfg, learned)
	if err != nil {
		t.Fatal(err)
	}
	var want decisionDigest
	wdr := window.NewByTime(cfg.WindowDuration)
	for _, ev := range run {
		if w, ok := wdr.Add(ev); ok {
			want.add(ref.ProcessWindow(w))
		}
		for {
			w, ok := wdr.Drain()
			if !ok {
				break
			}
			want.add(ref.ProcessWindow(w))
		}
	}
	if w, ok := wdr.Flush(); ok {
		want.add(ref.ProcessWindow(w))
	}
	if stats.Windows != want.n || got.n != want.n {
		t.Fatalf("Run judged %d windows (%d decisions), one event at a time %d", stats.Windows, got.n, want.n)
	}
	if want.n < int(6*time.Hour/cfg.WindowDuration) {
		t.Fatalf("only %d windows: the gap was not windowed", want.n)
	}
	if got.h != want.h {
		t.Fatal("decisions across the gap differ from one event at a time")
	}
}
