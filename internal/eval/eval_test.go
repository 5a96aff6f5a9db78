package eval

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"enduratrace/internal/core"
)

// smallOptions shrinks the experiment so the test runs in a few seconds
// even under the race detector: a 40 s reference run and a 2-minute
// perturbed run with two strong perturbations.
func smallOptions() Options {
	opts := DefaultOptions()
	opts.RefDuration = 40 * time.Second
	opts.RunDuration = 2 * time.Minute
	opts.Factor = 3
	opts.PerturbFirst = 30 * time.Second
	opts.PerturbPeriod = 50 * time.Second
	opts.PerturbDuration = 15 * time.Second
	return opts
}

func TestRunProducesPaperMetrics(t *testing.T) {
	rep, err := Run(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPerturbations != 2 {
		t.Fatalf("schedule has %d perturbations, want 2", rep.TotalPerturbations)
	}
	if rep.DetectedPerturbations == 0 {
		t.Fatal("no perturbation detected")
	}
	if rep.ReductionFactor == nil || *rep.ReductionFactor <= 1 {
		t.Fatalf("reduction factor %v, want > 1", rep.ReductionFactor)
	}
	if rep.RecordedBytes <= 0 || rep.RecordedBytes >= rep.FullBytes {
		t.Fatalf("recorded %d of %d bytes", rep.RecordedBytes, rep.FullBytes)
	}
	if rep.Precision <= 0 || rep.Precision > 1 {
		t.Fatalf("precision %g outside (0,1]", rep.Precision)
	}
	if rep.Recall <= 0 || rep.Recall > 1 {
		t.Fatalf("recall %g outside (0,1]", rep.Recall)
	}
	for _, p := range rep.Perturbations {
		if !p.Detected {
			continue
		}
		if p.DeltaSMs == nil || p.DeltaEMs == nil {
			t.Fatalf("detected perturbation missing Δs/Δe: %+v", p)
		}
		if *p.DeltaSMs < 0 {
			t.Fatalf("negative Δs: %+v", p)
		}
		// Detection must begin inside or shortly after the interval, not
		// tens of seconds later.
		if *p.DeltaSMs > 10_000 {
			t.Fatalf("Δs %g ms implausibly large", *p.DeltaSMs)
		}
	}
	if rep.Windows == 0 || rep.GateTrips == 0 || rep.Anomalies == 0 {
		t.Fatalf("degenerate run stats: %+v", rep)
	}
	if rep.Anomalies != rep.RecordedWindows {
		t.Fatalf("anomalies %d != recorded windows %d", rep.Anomalies, rep.RecordedWindows)
	}
}

func TestReportMarshalsToJSON(t *testing.T) {
	rep, err := Run(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report not JSON-marshalable: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"reduction_factor", "precision", "recall", "perturbations",
		"mean_delta_s_ms", "mean_delta_e_ms"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("report JSON missing %q", key)
		}
	}
}

// TestReportsEffectiveGateThreshold: under GateAuto the report's
// gate_threshold is the calibrated threshold the monitor runs with, not
// the configured fixed one that GateAuto overrides.
func TestReportsEffectiveGateThreshold(t *testing.T) {
	opts := smallOptions()
	opts.Core.GateAuto = true
	learned, err := Learn(opts)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.NewMonitor(opts.Core, learned)
	if err != nil {
		t.Fatal(err)
	}
	want := mon.GateThreshold()
	if math.Float64bits(want) == math.Float64bits(opts.Core.GateThreshold) {
		t.Fatalf("calibrated threshold %v equals the configured one; the test lost its point", want)
	}
	rep, err := RunWithLearned(opts, learned)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		GateThreshold float64 `json:"gate_threshold"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(decoded.GateThreshold) != math.Float64bits(want) {
		t.Errorf("report gate_threshold %v, monitor ran with %v (configured %v)",
			decoded.GateThreshold, want, opts.Core.GateThreshold)
	}
}

func TestNoPerturbationMeansFewRecordings(t *testing.T) {
	opts := smallOptions()
	opts.Factor = 1 // clean run: the monitor should record almost nothing
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPerturbations != 0 {
		t.Fatalf("clean run reports %d perturbations", rep.TotalPerturbations)
	}
	// False positives are allowed but must be rare: under 2% of windows.
	if frac := float64(rep.Anomalies) / float64(rep.Windows); frac > 0.02 {
		t.Fatalf("clean run flagged %.1f%% of windows", frac*100)
	}
	// A clean run records little or nothing; nil means literally nothing
	// was recorded (infinite reduction), which is also fine.
	if rep.ReductionFactor != nil && *rep.ReductionFactor <= 10 {
		t.Fatalf("clean-run reduction factor %g suspiciously low", *rep.ReductionFactor)
	}
	if rep.ReductionFactor == nil && rep.RecordedWindows != 0 {
		t.Fatalf("nil reduction factor with %d recorded windows", rep.RecordedWindows)
	}
}

func TestValidateRejectsBadOptions(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.RefDuration = 0 },
		func(o *Options) { o.RunDuration = -time.Second },
		func(o *Options) { o.Factor = 0.5 },
		func(o *Options) { o.Factor = math.NaN() },
		func(o *Options) { o.Core.Alpha = math.NaN() },
		func(o *Options) { o.Slack = -time.Second },
		func(o *Options) { o.RunSeedOffset = 0 },
	}
	for i, mutate := range bad {
		opts := smallOptions()
		mutate(&opts)
		if _, err := Run(opts); err == nil {
			t.Fatalf("bad options %d accepted", i)
		}
	}
}
