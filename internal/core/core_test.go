package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/lof"
	"enduratrace/internal/pmf"
	"enduratrace/internal/recorder"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// synth emits one event per 200 µs over [start, end) drawing types from
// weights (cumulative sampling), deterministically per seed. The density
// gives 100 events per 20 ms window, enough to keep multinomial noise well
// under the gate threshold.
func synth(start, end time.Duration, weights []float64, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	var total float64
	for _, w := range weights {
		total += w
	}
	var evs []trace.Event
	for ts := start; ts < end; ts += 200 * time.Microsecond {
		x := rng.Float64() * total
		typ := 0
		for i, w := range weights {
			if x < w {
				typ = i
				break
			}
			x -= w
		}
		evs = append(evs, trace.Event{TS: ts, Type: trace.EventType(typ), Arg: 1})
	}
	return evs
}

// memSink is a recorder.Sink that keeps a copy of every recorded window
// and accounts its encoded size like the shipped sinks.
type memSink struct {
	*recorder.NullSink
	Windows []window.Window
}

func newMemSink() *memSink { return &memSink{NullSink: recorder.NewNullSink()} }

func (s *memSink) Record(w window.Window) error {
	s.Windows = append(s.Windows, w.Clone())
	return s.NullSink.Record(w)
}

// testConfig scales the shipped configuration to the synthetic traces:
// four event types, 20 ms windows and the pmf-only feature vector.
func testConfig() Config {
	cfg := NewConfig(4)
	cfg.IncludeRate = false
	cfg.WindowDuration = 20 * time.Millisecond
	cfg.K = 5
	cfg.Alpha = 2
	cfg.GateThreshold = 0.3
	return cfg
}

var refWeights = []float64{4, 3, 2, 1}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumTypes = 1 },
		func(c *Config) { c.WindowCount = 10 }, // both window kinds set
		func(c *Config) { c.WindowDuration = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Alpha = 0.5 },
		func(c *Config) { c.GateThreshold = -1 },
		func(c *Config) { c.MergeLambda = 0 },
		func(c *Config) { c.Smoothing = -0.1 },
		func(c *Config) { c.GateDistance.F = nil },
		// NaN fails every comparison, so each range check must reject it.
		func(c *Config) { c.Alpha = math.NaN() },
		func(c *Config) { c.GateThreshold = math.NaN() },
		func(c *Config) { c.MergeLambda = math.NaN() },
		func(c *Config) { c.Smoothing = math.NaN() },
		// The model file is JSON, which has no +Inf.
		func(c *Config) { c.Alpha = math.Inf(1) },
		func(c *Config) { c.GateThreshold = math.Inf(1) },
		func(c *Config) { c.Smoothing = math.Inf(1) },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
	// A negative window size is refused for what it is, not as a second
	// or missing window kind.
	for _, c := range []struct {
		d    time.Duration
		n    int
		want string
	}{
		{time.Second, -5, "WindowCount must not be negative"},
		{0, -5, "WindowCount must not be negative"},
		{-time.Second, 0, "WindowDuration must not be negative"},
		{-time.Second, 10, "WindowDuration must not be negative"},
	} {
		cfg := testConfig()
		cfg.WindowDuration, cfg.WindowCount = c.d, c.n
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("window %v, count %d: %v, want %q", c.d, c.n, err, c.want)
		}
	}
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// TestValidateCatchesBadCondenseAndGateAuto checks the auto-gate quantile
// range. The config no longer carries a condensation target, so only the
// gate half of the name has rows left.
func TestValidateCatchesBadCondenseAndGateAuto(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.GateAutoQuantile = 1.5 },
		func(c *Config) { c.GateAutoQuantile = -0.5 },
		func(c *Config) { c.GateAutoQuantile = math.NaN() },
	} {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad gate config %d validated", i)
		}
	}
	cfg := testConfig()
	cfg.GateAuto = true
	cfg.GateAutoQuantile = 0.95
	if err := cfg.Validate(); err != nil {
		t.Fatalf("good auto-gate config rejected: %v", err)
	}
}

func TestLearnTooFewWindows(t *testing.T) {
	cfg := testConfig()
	evs := synth(0, 60*time.Millisecond, refWeights, 1) // 3 windows < K+1
	_, err := Learn(cfg, trace.NewSliceReader(evs))
	if !errors.Is(err, lof.ErrTooFewPoints) {
		t.Fatalf("err = %v, want ErrTooFewPoints", err)
	}
}

func TestGateMergeVsTrip(t *testing.T) {
	cfg := testConfig()
	ref := synth(0, time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(cfg, learned)
	if err != nil {
		t.Fatal(err)
	}

	mkWindow := func(weights []float64, seed int64) window.Window {
		evs := synth(0, 20*time.Millisecond, weights, seed)
		return window.Window{Start: 0, End: 20 * time.Millisecond, Events: evs}
	}

	// First window always trips: there is no past yet.
	d := mon.ProcessWindow(mkWindow(refWeights, 2))
	if !d.GateTripped || !math.IsInf(d.GateDist, 1) {
		t.Fatalf("first window: %+v, want seeded trip", d)
	}
	// A same-mix window stays under the gate and is merged, not scored.
	d = mon.ProcessWindow(mkWindow(refWeights, 3))
	if d.GateTripped {
		t.Fatalf("same-mix window tripped the gate: dist %g", d.GateDist)
	}
	if !math.IsNaN(d.LOF) || d.Anomalous {
		t.Fatalf("quiet gate still scored LOF: %+v", d)
	}
	// A completely different mix trips the gate and scores anomalous.
	d = mon.ProcessWindow(mkWindow([]float64{0, 0, 1, 20}, 4))
	if !d.GateTripped {
		t.Fatalf("shifted window did not trip the gate: dist %g", d.GateDist)
	}
	if math.IsNaN(d.LOF) || !d.Anomalous {
		t.Fatalf("shifted window not anomalous: %+v", d)
	}
	if got, want := mon.Snapshot(), (Snapshot{Windows: 3, GateTrips: 2, LOFCalls: 2, Anomalies: 1}); got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}

func TestLearnRunEndToEnd(t *testing.T) {
	cfg := testConfig()
	ref := synth(0, 2*time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	if learned.RefWindows != 100 {
		t.Fatalf("RefWindows = %d, want 100", learned.RefWindows)
	}

	// Splice an anomalous segment into an otherwise clean run.
	anomStart, anomEnd := 1*time.Second, 1200*time.Millisecond
	var run []trace.Event
	run = append(run, synth(0, anomStart, refWeights, 2)...)
	run = append(run, synth(anomStart, anomEnd, []float64{0, 1, 10, 10}, 3)...)
	run = append(run, synth(anomEnd, 3*time.Second, refWeights, 4)...)

	sink := newMemSink()
	var anomWindows []window.Window
	stats, err := Run(cfg, learned, trace.NewSliceReader(run), sink, func(d Decision) error {
		if d.Anomalous {
			anomWindows = append(anomWindows, d.Window)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 150 {
		t.Fatalf("windows = %d, want 150", stats.Windows)
	}
	if stats.Anomalies == 0 {
		t.Fatal("no anomalies detected in spliced segment")
	}
	if stats.Anomalies != stats.RecWindows || stats.RecWindows != len(sink.Windows) {
		t.Fatalf("anomalies %d, recorded %d, sink %d: want equal",
			stats.Anomalies, stats.RecWindows, len(sink.Windows))
	}
	// Every anomalous window must overlap the spliced segment (allow one
	// window of slop at each edge for regime-switch transients).
	slop := cfg.WindowDuration
	for _, w := range anomWindows {
		if w.End < anomStart-slop || w.Start > anomEnd+slop {
			t.Fatalf("anomalous window [%v,%v) outside spliced segment [%v,%v)",
				w.Start, w.End, anomStart, anomEnd)
		}
	}
	// Storage accounting: full size must match an independent measurement,
	// and recording only the anomaly must shrink the trace.
	acct := traceio.NewSizeAccountant()
	if _, err := trace.Copy(acct, trace.NewSliceReader(run)); err != nil {
		t.Fatal(err)
	}
	if full := acct.Bytes(); stats.FullBytes != full {
		t.Fatalf("FullBytes = %d, independent measure %d", stats.FullBytes, full)
	}
	if rf, ok := stats.ReductionFactor(); !ok || rf <= 1 {
		t.Fatalf("reduction factor %g (ok=%v), want defined and > 1", rf, ok)
	}
	if stats.Start != 0 || stats.End != 3*time.Second {
		t.Fatalf("span [%v,%v), want [0,3s)", stats.Start, stats.End)
	}
}

func TestRunWithContextSink(t *testing.T) {
	cfg := testConfig()
	ref := synth(0, 2*time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	var run []trace.Event
	run = append(run, synth(0, time.Second, refWeights, 2)...)
	run = append(run, synth(time.Second, 1100*time.Millisecond, []float64{0, 1, 10, 10}, 3)...)
	run = append(run, synth(1100*time.Millisecond, 2*time.Second, refWeights, 4)...)

	mem := newMemSink()
	ctx := recorder.NewContextSink(mem, 2, 2)
	stats, err := Run(cfg, learned, trace.NewSliceReader(run), ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Anomalies == 0 {
		t.Fatal("no anomalies")
	}
	if len(mem.Windows) <= stats.Anomalies {
		t.Fatalf("context sink recorded %d windows for %d anomalies, want more",
			len(mem.Windows), stats.Anomalies)
	}
	for i := 1; i < len(mem.Windows); i++ {
		if mem.Windows[i].Index <= mem.Windows[i-1].Index {
			t.Fatalf("recorded windows out of order or duplicated: %d then %d",
				mem.Windows[i-1].Index, mem.Windows[i].Index)
		}
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.IncludeRate = true
	ref := synth(0, 2*time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, cfg, learned); err != nil {
		t.Fatal(err)
	}
	cfg2, learned2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.NumTypes != cfg.NumTypes || cfg2.K != cfg.K || cfg2.Alpha != cfg.Alpha ||
		cfg2.WindowDuration != cfg.WindowDuration ||
		cfg2.GateDistance.Name != cfg.GateDistance.Name ||
		cfg2.LOFDistance.Name != cfg.LOFDistance.Name {
		t.Fatalf("loaded config differs: %+v vs %+v", cfg2, cfg)
	}
	if learned2.RefWindows != learned.RefWindows ||
		learned2.Featurizer != learned.Featurizer ||
		learned2.Model.Len() != learned.Model.Len() {
		t.Fatalf("loaded model differs")
	}
	// The reloaded model must score identically.
	q := learned.Featurizer.Features(window.Window{
		Start: 0, End: 20 * time.Millisecond,
		Events: synth(0, 20*time.Millisecond, []float64{1, 1, 1, 1}, 9),
	})
	a, b := learned.Model.Score(q), learned2.Model.Score(q)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("reloaded model scores %g, original %g", b, a)
	}
}

// TestModelSaveLoadRoundTripGateAuto: an auto-gated model must fully
// round-trip — the flag and the calibrated gate threshold survive, and the
// reloaded model scores bit for bit like the original.
func TestModelSaveLoadRoundTripGateAuto(t *testing.T) {
	cfg := testConfig()
	cfg.IncludeRate = true
	cfg.GateAuto = true
	ref := synth(0, 4*time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, cfg, learned); err != nil {
		t.Fatal(err)
	}
	cfg2, learned2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg2.GateAuto {
		t.Fatalf("loaded config lost the gate_auto field: %+v", cfg2)
	}
	if learned2.Model.Len() != learned.Model.Len() {
		t.Fatalf("reloaded model has %d points, want %d", learned2.Model.Len(), learned.Model.Len())
	}
	if learned2.AutoGateThreshold != learned.AutoGateThreshold {
		t.Fatalf("auto gate threshold %g != %g", learned2.AutoGateThreshold, learned.AutoGateThreshold)
	}
	q := learned.Featurizer.Features(window.Window{
		Start: 0, End: 20 * time.Millisecond,
		Events: synth(0, 20*time.Millisecond, []float64{1, 1, 1, 1}, 9),
	})
	if a, b := learned.Model.Score(q), learned2.Model.Score(q); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("reloaded auto-gated model scores %g, original %g", b, a)
	}
}

func TestSaveModelRejectsUnnamedDistance(t *testing.T) {
	cfg := testConfig()
	cfg.GateDistance.Name = ""
	ref := synth(0, time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, cfg, learned); err == nil {
		t.Fatal("SaveModel accepted an unnamed distance")
	}
}

func TestFeaturesPMFIsDistribution(t *testing.T) {
	cfg := testConfig()
	ref := synth(0, time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	w := window.Window{Start: 0, End: 20 * time.Millisecond,
		Events: synth(0, 20*time.Millisecond, refWeights, 5)}
	v := learned.Featurizer.Features(w)
	var p pmf.Vector = learned.Featurizer.PMFOnly(v)
	if err := p.Validate(); err != nil {
		t.Fatalf("feature pmf invalid: %v", err)
	}
}
