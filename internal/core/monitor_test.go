package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"enduratrace/internal/distance"
	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
	"enduratrace/internal/window"
)

// TestMonitorsShareLearned drives N Monitors concurrently over one shared
// Learned, one goroutine each, the way serve runs one per connection (run
// under -race in CI), and checks that every stream's books are identical
// to a fresh monitor's run serially: per-stream state is isolated, the
// shared model is never written.
func TestMonitorsShareLearned(t *testing.T) {
	cfg := testConfig()
	ref := synth(0, 2*time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}

	const streams = 8
	// Each stream gets its own trace: clean prefix, stream-specific
	// anomalous splice, clean suffix.
	runs := make([][]trace.Event, streams)
	for i := range runs {
		seed := int64(100 + i)
		var run []trace.Event
		run = append(run, synth(0, time.Second, refWeights, seed)...)
		run = append(run, synth(time.Second, 1200*time.Millisecond, []float64{0, 1, 10, 10}, seed+1)...)
		run = append(run, synth(1200*time.Millisecond, 2*time.Second, refWeights, seed+2)...)
		runs[i] = run
	}

	// Reference outcome: a fresh monitor per stream, run serially.
	want := make([]RunStats, streams)
	for i, run := range runs {
		stats, err := Run(cfg, learned, trace.NewSliceReader(run), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = stats
	}

	got := make([]RunStats, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for i, run := range runs {
		mon, err := NewMonitor(cfg, learned)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = mon.Run(trace.NewSliceReader(run), nil, nil)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("stream %d diverged from the serial run:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		if got[i].Anomalies == 0 {
			t.Fatalf("stream %d detected nothing", i)
		}
	}
}

// TestSnapshotWhileRunning: snapshots taken while the monitor runs are
// race-free (-race validates the atomics) and monotonic in window count,
// and the final snapshot equals the run's stats.
func TestSnapshotWhileRunning(t *testing.T) {
	cfg := testConfig()
	learned, err := Learn(cfg, trace.NewSliceReader(synth(0, 2*time.Second, refWeights, 1)))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(cfg, learned)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := mon.Snapshot()
			if s.Windows < last {
				t.Error("snapshot window count went backwards")
				return
			}
			last = s.Windows
		}
	}()
	stats, err := mon.Run(trace.NewSliceReader(perturbedRun()), nil, nil)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if s := mon.Snapshot(); s.Windows != int64(stats.Windows) {
		t.Fatalf("final snapshot windows %d != RunStats windows %d", s.Windows, stats.Windows)
	}
}

// TestProcessWindowZeroAlloc is the allocation-regression gate for the
// monitor's steady state: after the first window, neither the quiet-gate
// path nor the gate-tripped LOF path may allocate.
func TestProcessWindowZeroAlloc(t *testing.T) {
	cfg := testConfig()
	ref := synth(0, 2*time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(cfg, learned)
	if err != nil {
		t.Fatal(err)
	}
	quiet := window.Window{Start: 0, End: 20 * time.Millisecond,
		Events: synth(0, 20*time.Millisecond, refWeights, 2)}
	shifted := window.Window{Start: 0, End: 20 * time.Millisecond,
		Events: synth(0, 20*time.Millisecond, []float64{0, 0, 1, 20}, 3)}

	mon.ProcessWindow(quiet) // seed the past pmf, warm the scratch
	mon.ProcessWindow(shifted)

	if d := mon.ProcessWindow(quiet); d.GateTripped {
		// The shifted window reset the past pmf; one quiet window re-arms.
		mon.ProcessWindow(quiet)
	}
	if allocs := testing.AllocsPerRun(100, func() { mon.ProcessWindow(quiet) }); allocs != 0 {
		t.Errorf("quiet-gate ProcessWindow allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { mon.ProcessWindow(shifted) }); allocs != 0 {
		t.Errorf("tripped-gate ProcessWindow allocates %v/op, want 0", allocs)
	}

	// Run times every ProcessWindow it performs (Decision.ScoreNs): the
	// clock reads around it may not cost the hot path its allocation-free
	// steady state.
	var scoreNs int64
	timed := func(w window.Window) {
		t0 := obs.Now()
		mon.ProcessWindow(w)
		scoreNs += obs.Now() - t0
	}
	if allocs := testing.AllocsPerRun(100, func() { timed(quiet) }); allocs != 0 {
		t.Errorf("timed quiet-gate ProcessWindow allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { timed(shifted) }); allocs != 0 {
		t.Errorf("timed tripped-gate ProcessWindow allocates %v/op, want 0", allocs)
	}
	if scoreNs <= 0 {
		t.Error("the clock never moved across ProcessWindow")
	}
}

// TestGateAutoCalibration: learning with GateAuto must derive a positive
// threshold near the clean trace's gate-distance ceiling, and the
// monitor must honour it — a clean continuation barely trips the gate.
func TestGateAutoCalibration(t *testing.T) {
	cfg := testConfig()
	cfg.GateAuto = true
	ref := synth(0, 2*time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	if learned.AutoGateThreshold <= 0 {
		t.Fatalf("AutoGateThreshold = %g, want > 0", learned.AutoGateThreshold)
	}
	mon, err := NewMonitor(cfg, learned)
	if err != nil {
		t.Fatal(err)
	}
	if mon.GateThreshold() != learned.AutoGateThreshold {
		t.Fatalf("monitor threshold %g != calibrated %g", mon.GateThreshold(), learned.AutoGateThreshold)
	}
	// A shifted regime must trip the calibrated gate.
	shifted := synth(0, time.Second, []float64{0, 0, 1, 20}, 10)
	stats, err := Run(cfg, learned, trace.NewSliceReader(shifted), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GateTrips == 0 {
		t.Fatal("shifted run never tripped the auto gate")
	}
	// Gate economy: at a ceiling quantile, a clean continuation must stay
	// mostly under the calibrated gate. (The 0.90 default deliberately
	// trades clean-gate economy for staying engaged inside shifted
	// regimes, so the economy bound is asserted at q = 0.99.)
	cfgHi := cfg
	cfgHi.GateAutoQuantile = 0.99
	learnedHi, err := Learn(cfgHi, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	if learnedHi.AutoGateThreshold < learned.AutoGateThreshold {
		t.Fatalf("q99 threshold %g below q90 threshold %g",
			learnedHi.AutoGateThreshold, learned.AutoGateThreshold)
	}
	clean := synth(0, 2*time.Second, refWeights, 9)
	stats, err = Run(cfgHi, learnedHi, trace.NewSliceReader(clean), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(stats.GateTrips) / float64(stats.Windows); frac > 0.1 {
		t.Fatalf("clean run tripped the q99 auto gate on %.0f%% of windows", 100*frac)
	}

	// A monitor asked for GateAuto against a model learned without it
	// must refuse rather than silently use the fixed threshold.
	learnedFixed, err := Learn(testConfig(), trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMonitor(cfg, learnedFixed); err == nil {
		t.Fatal("NewMonitor accepted GateAuto with an uncalibrated model")
	}
}

// TestGateAutoQuantileMonotone: a higher calibration quantile cannot give
// a lower threshold.
func TestGateAutoQuantileMonotone(t *testing.T) {
	ref := synth(0, 2*time.Second, refWeights, 1)
	thr := func(q float64) float64 {
		cfg := testConfig()
		cfg.GateAuto = true
		cfg.GateAutoQuantile = q
		learned, err := Learn(cfg, trace.NewSliceReader(ref))
		if err != nil {
			t.Fatal(err)
		}
		return learned.AutoGateThreshold
	}
	lo, hi := thr(0.5), thr(0.99)
	if math.IsNaN(lo) || lo <= 0 || hi < lo {
		t.Fatalf("thresholds q50=%g q99=%g, want 0 < q50 <= q99", lo, hi)
	}
}

// TestGateThresholdAdjacent: at thresholds on and one ulp either side of
// a window's exact gate distance, and of its upper bound, the shipped
// symkl gate decides as the exact gate (symkl without Upper) does, with
// the exact distance on a trip. A window is certified quiet exactly when
// the threshold is at or above the bound.
func TestGateThresholdAdjacent(t *testing.T) {
	cfg := testConfig()
	learned, err := Learn(cfg, trace.NewSliceReader(synth(0, time.Second, refWeights, 1)))
	if err != nil {
		t.Fatal(err)
	}
	w1 := window.Window{End: 20 * time.Millisecond, Events: synth(0, 20*time.Millisecond, refWeights, 2)}
	w2 := window.Window{End: 20 * time.Millisecond, Events: synth(0, 20*time.Millisecond, refWeights, 3)}
	feat := learned.Featurizer
	n1, n2 := feat.PMFOnly(feat.Features(w1)), feat.PMFOnly(feat.Features(w2))
	exact, bound := distance.SymmetricKL(n2, n1), distance.SymmetricKLUpper(n2, n1)
	if !(exact > 0 && bound > exact && !math.IsInf(bound, 1)) {
		t.Fatalf("exact %v, bound %v: want 0 < exact < bound < +Inf", exact, bound)
	}
	decide := func(d distance.Distance, thr float64) Decision {
		c := cfg
		c.GateDistance, c.GateThreshold = d, thr
		mon, err := NewMonitor(c, learned)
		if err != nil {
			t.Fatal(err)
		}
		mon.ProcessWindow(w1) // seeds the past pmf with n1
		return mon.ProcessWindow(w2)
	}
	shipped, ref := distance.Must("symkl"), distance.Distance{Name: "symkl", F: distance.SymmetricKL}
	for _, v := range []float64{exact, bound} {
		for _, thr := range []float64{math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1))} {
			got, want := decide(shipped, thr), decide(ref, thr)
			if got.GateTripped != want.GateTripped || want.GateTripped != (exact > thr) {
				t.Fatalf("threshold %v: tripped %v, the exact gate %v (exact distance %v)", thr, got.GateTripped, want.GateTripped, exact)
			}
			switch {
			case got.GateTripped:
				if math.Float64bits(got.GateDist) != math.Float64bits(exact) {
					t.Fatalf("threshold %v: tripped with GateDist %v, want the exact %v", thr, got.GateDist, exact)
				}
			case thr >= bound:
				if math.Float64bits(got.GateDist) != math.Float64bits(bound) {
					t.Fatalf("threshold %v: quiet with GateDist %v, want the bound %v", thr, got.GateDist, bound)
				}
			default:
				if math.Float64bits(got.GateDist) != math.Float64bits(exact) {
					t.Fatalf("threshold %v under the bound: quiet with GateDist %v, want the exact %v", thr, got.GateDist, exact)
				}
			}
		}
	}
}
