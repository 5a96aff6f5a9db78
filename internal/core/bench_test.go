package core

import (
	"testing"
	"time"

	"enduratrace/internal/trace"
	"enduratrace/internal/window"
)

// benchMonitor builds a monitor over a synthetic reference trace plus one
// quiet and one gate-tripping window for the two ProcessWindow paths.
func benchMonitor(b *testing.B) (*Monitor, window.Window, window.Window) {
	cfg := testConfig()
	ref := synth(0, 8*time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		b.Fatal(err)
	}
	mon, err := NewMonitor(cfg, learned)
	if err != nil {
		b.Fatal(err)
	}
	quiet := window.Window{Start: 0, End: 20 * time.Millisecond,
		Events: synth(0, 20*time.Millisecond, refWeights, 2)}
	shifted := window.Window{Start: 0, End: 20 * time.Millisecond,
		Events: synth(0, 20*time.Millisecond, []float64{0, 0, 1, 20}, 3)}
	mon.ProcessWindow(quiet) // seed past pmf, warm scratch
	return mon, quiet, shifted
}

// BenchmarkProcessWindowQuiet measures the steady-state cost of a window
// that stays under the gate (featurize + gate distance + merge) — the
// path taken by the overwhelming majority of windows.
func BenchmarkProcessWindowQuiet(b *testing.B) {
	mon, quiet, _ := benchMonitor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.ProcessWindow(quiet)
	}
}

// BenchmarkProcessWindowTrip measures a gate-tripping window (featurize +
// gate + LOF scoring) on the exact model.
func BenchmarkProcessWindowTrip(b *testing.B) {
	mon, _, shifted := benchMonitor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.ProcessWindow(shifted)
	}
}
