package core

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"enduratrace/internal/recorder"
	"enduratrace/internal/trace"
)

// poison is the event a poisonReader writes over a batch before reading.
var poison = trace.Event{TS: -1, Type: 99, Arg: 0xdead}

// poisonReader is a trace.Reader that fills all of dst with poison
// before each read, and reads at most batch events at a time: a window,
// or a kept copy, that still aliases an earlier batch reads poison. The
// odd batch size makes most windows span batches.
type poisonReader struct {
	r     trace.Reader
	batch int
}

func (p poisonReader) ReadBatch(dst []trace.Event) (int, error) {
	for i := range dst {
		dst[i] = poison
	}
	return p.r.ReadBatch(dst[:min(len(dst), p.batch)])
}

// TestRunPoisonedBatches: Run lends each window from the batch it read,
// so whatever keeps a window must copy it. Through a reader that poisons
// every batch before refilling it, the context sink's recording — two
// windows before each anomaly and one after — is byte-for-byte the
// recording of a plain read.
func TestRunPoisonedBatches(t *testing.T) {
	cfg := testConfig()
	learned, err := Learn(cfg, trace.NewSliceReader(synth(0, 2*time.Second, refWeights, 1)))
	if err != nil {
		t.Fatal(err)
	}
	run := perturbedRun()
	record := func(r trace.Reader) ([]byte, RunStats) {
		t.Helper()
		var buf bytes.Buffer
		ss, err := recorder.NewStreamSink(&buf, -1)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Run(cfg, learned, r, recorder.NewContextSink(ss, 2, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), stats
	}
	want, wantStats := record(trace.NewSliceReader(run))
	if wantStats.RecWindows <= wantStats.Anomalies {
		t.Fatalf("recorded %d windows for %d anomalies: no context to check", wantStats.RecWindows, wantStats.Anomalies)
	}
	for _, batch := range []int{1, 37, 512} {
		got, stats := record(poisonReader{trace.NewSliceReader(run), batch})
		if stats != wantStats {
			t.Errorf("batch %d: stats %+v, plain read %+v", batch, stats, wantStats)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("batch %d: recording differs from the plain read's (%d vs %d bytes)", batch, len(got), len(want))
		}
	}
}

// TestLearnPoisonedBatches: Learn keeps every reference window, so it
// copies each one; a poisoned read learns the model a plain read does,
// byte for byte.
func TestLearnPoisonedBatches(t *testing.T) {
	cfg := testConfig()
	ref := synth(0, 2*time.Second, refWeights, 1)
	model := func(r trace.Reader) []byte {
		t.Helper()
		learned, err := Learn(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveModel(&buf, cfg, learned); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := model(trace.NewSliceReader(ref))
	if got := model(poisonReader{trace.NewSliceReader(ref), 37}); !bytes.Equal(got, want) {
		t.Errorf("model learned through a poisoned reader differs from the plain read's (%d vs %d bytes)", len(got), len(want))
	}
}

// quietWindow is one testConfig window of the reference mix, in a fixed
// order: every window of a trace made of it has the same pmf, so the gate
// trips only on the first.
func quietWindow() []trace.Event {
	var evs []trace.Event
	for i := 0; i < 100; i++ {
		typ := 0
		for x := i % 10; x >= int(refWeights[typ]); typ++ {
			x -= int(refWeights[typ])
		}
		evs = append(evs, trace.Event{TS: time.Duration(i) * 200 * time.Microsecond, Type: trace.EventType(typ), Arg: 1})
	}
	return evs
}

// lapReader is an in-memory trace.Reader serving one window of
// events laps times, each lap shifted by span: a long quiet trace held in
// one window's memory.
type lapReader struct {
	lap       []trace.Event
	span      time.Duration
	laps      int
	lapNo, at int
}

func (r *lapReader) ReadBatch(dst []trace.Event) (int, error) {
	n := 0
	for ; n < len(dst) && r.lapNo < r.laps; n++ {
		dst[n] = r.lap[r.at]
		dst[n].TS += time.Duration(r.lapNo) * r.span
		if r.at++; r.at == len(r.lap) {
			r.at, r.lapNo = 0, r.lapNo+1
		}
	}
	if n == 0 && len(dst) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// quietMonitor is a Monitor over the synthetic reference model, and a
// function that runs it over n quiet windows.
func quietMonitor(tb testing.TB) func(n int) RunStats {
	cfg := testConfig()
	learned, err := Learn(cfg, trace.NewSliceReader(synth(0, 2*time.Second, refWeights, 1)))
	if err != nil {
		tb.Fatal(err)
	}
	mon, err := NewMonitor(cfg, learned)
	if err != nil {
		tb.Fatal(err)
	}
	lap := quietWindow()
	return func(n int) RunStats {
		stats, err := mon.Run(&lapReader{lap: lap, span: cfg.WindowDuration, laps: n}, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return stats
	}
}

// TestRunQuietAllocsFlat: a quiet window costs Run no allocation, so a
// run over ten times the windows allocates exactly as often.
func TestRunQuietAllocsFlat(t *testing.T) {
	run := quietMonitor(t)
	if stats := run(1000); stats.Windows != 1000 || stats.GateTrips != 1 {
		t.Fatalf("quiet run: %d windows, %d gate trips; want 1000 and 1", stats.Windows, stats.GateTrips)
	}
	short := testing.AllocsPerRun(5, func() { run(1000) })
	long := testing.AllocsPerRun(5, func() { run(10000) })
	if short != long {
		t.Errorf("Run allocates %v times over 1 000 quiet windows and %v over 10 000: windows allocate", short, long)
	}
}

// BenchmarkRunQuiet measures Monitor.Run end to end over quiet windows
// from memory — windowing, featurize, gate, merge — per window, with the
// allocations a window costs.
func BenchmarkRunQuiet(b *testing.B) {
	const windows = 1000
	run := quietMonitor(b)
	run(windows) // seed the past pmf
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(windows)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * windows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/window")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/window")
}
