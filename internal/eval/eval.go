// Package eval reproduces the paper's §III experiment end-to-end: it
// generates a clean reference run and a perturbed run of the simulated
// pipeline, learns the reference model with core.Learn, monitors the
// perturbed run with core.Run, and scores the outcome against the
// ground-truth perturbation schedule.
//
// Three families of metrics come out:
//
//   - the headline storage metric, RunStats.ReductionFactor (full trace
//     bytes over recorded bytes);
//   - detection latency per perturbation, Δs (perturbation start → first
//     anomalous window) and Δe (perturbation end → last anomalous window),
//     the quantities §III bounds;
//   - window-level precision/recall of the recorded windows against the
//     ground-truth perturbation intervals.
package eval

import (
	"fmt"
	"math"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/perturb"
	"enduratrace/internal/recorder"
	"enduratrace/internal/stats"
)

// Options configures one experiment.
type Options struct {
	// Seed drives both simulations (the perturbed run uses
	// Seed+RunSeedOffset so the two traces are independent draws of the
	// same workload).
	Seed int64
	// RunSeedOffset separates the perturbed run's RNG stream from the
	// reference stream; it must be non-zero or the two runs would replay
	// the same randomness. Single experiments use 1; multi-seed sweeps use
	// a large offset so that seed s's run stream cannot collide with seed
	// s+1's reference stream.
	RunSeedOffset int64
	// RefDuration is the length of the clean reference run fed to Learn.
	RefDuration time.Duration
	// RunDuration is the length of the perturbed, monitored run.
	RunDuration time.Duration
	// Factor is the CPU slowdown during a perturbation (>= 1; 1 disables).
	Factor float64
	// PerturbFirst/PerturbPeriod/PerturbDuration lay out the periodic
	// perturbation schedule, mirroring §III's "every 3 minutes for 20 s".
	PerturbFirst    time.Duration
	PerturbPeriod   time.Duration
	PerturbDuration time.Duration
	// Slack extends each ground-truth interval at its end when matching
	// anomalous windows: the frame queue delays both the visible onset and
	// the recovery, so detections legitimately trail the interval.
	Slack time.Duration
	// Warmup excludes the pipeline's startup transient (prebuffering) from
	// precision/recall accounting.
	Warmup time.Duration
	// Sim is the base pipeline configuration; Duration, Load and Seed are
	// overridden per run.
	Sim mediasim.Config
	// Core is the monitor configuration.
	Core core.Config
}

// DefaultOptions returns a paper-shaped experiment scaled to run in a few
// seconds: a 2-minute reference run and a 10-minute perturbed run with five
// 20-second factor-3 CPU hogs, monitored with core.NewConfig's shipped
// configuration.
func DefaultOptions() Options {
	return Options{
		Seed:            1,
		RunSeedOffset:   1,
		RefDuration:     2 * time.Minute,
		RunDuration:     10 * time.Minute,
		Factor:          3,
		PerturbFirst:    60 * time.Second,
		PerturbPeriod:   2 * time.Minute,
		PerturbDuration: 20 * time.Second,
		Slack:           5 * time.Second,
		Warmup:          5 * time.Second,
		Sim:             mediasim.DefaultConfig(),
		Core:            core.NewConfig(mediasim.NumEventTypes),
	}
}

// Validate reports option errors beyond what core/mediasim validate
// themselves.
func (o Options) Validate() error {
	switch {
	case o.RefDuration <= 0:
		return fmt.Errorf("eval: RefDuration %v must be positive", o.RefDuration)
	case o.RunDuration <= 0:
		return fmt.Errorf("eval: RunDuration %v must be positive", o.RunDuration)
	case !(o.Factor >= 1 && o.Factor <= math.MaxFloat64): // negated so that NaN fails
		return fmt.Errorf("eval: Factor %g must be finite and >= 1", o.Factor)
	case o.Slack < 0 || o.Warmup < 0:
		return fmt.Errorf("eval: Slack and Warmup must be >= 0")
	case o.RunSeedOffset == 0:
		return fmt.Errorf("eval: RunSeedOffset must be non-zero (the perturbed run would replay the reference seed)")
	}
	return nil
}

// Perturbation is the per-interval detection outcome.
type Perturbation struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// Detected reports whether any anomalous window fell inside the
	// interval (extended by Slack).
	Detected bool `json:"detected"`
	// DeltaSMs is the §III detection-start delay in milliseconds: first
	// anomalous window start minus perturbation start. Nil when undetected.
	DeltaSMs *float64 `json:"delta_s_ms"`
	// DeltaEMs is the detection-end delay: last anomalous window end minus
	// perturbation end (negative when detection dies down before the
	// perturbation does). Nil when undetected.
	DeltaEMs *float64 `json:"delta_e_ms"`
	// Windows counts anomalous windows attributed to this perturbation.
	Windows int `json:"anomalous_windows"`
}

// Report is the experiment outcome; it marshals directly to the harness's
// BENCH_*.json shape.
type Report struct {
	Name string `json:"name"`

	Seed           int64   `json:"seed"`
	RefDurationS   float64 `json:"ref_duration_s"`
	RunDurationS   float64 `json:"run_duration_s"`
	Factor         float64 `json:"factor"`
	Alpha          float64 `json:"alpha"`
	K              int     `json:"k"`
	WindowMS       float64 `json:"window_ms"`
	GateThreshold  float64 `json:"gate_threshold"` // the one the monitor ran with: calibrated under GateAuto
	GateDistance   string  `json:"gate_distance"`
	LOFDistance    string  `json:"lof_distance"`
	RefWindows     int     `json:"ref_windows"`
	RefTrainP95LOF float64 `json:"ref_train_p95_lof"`

	Windows         int   `json:"windows"`
	GateTrips       int   `json:"gate_trips"`
	Anomalies       int   `json:"anomalies"`
	RecordedWindows int   `json:"recorded_windows"`
	FullBytes       int64 `json:"full_bytes"`
	RecordedBytes   int64 `json:"recorded_bytes"`
	// ReductionFactor is FullBytes/RecordedBytes, the paper's headline
	// metric. It is nil — marshalling as JSON null — when no window was
	// recorded, where the ratio is undefined (RecordedBytes then counts
	// only the recording's header).
	ReductionFactor *float64 `json:"reduction_factor"`

	// Precision is tp/(tp+fp) over post-warmup windows; 0 when
	// ScoredAnomalousWindows is 0, where the ratio is undefined.
	Precision float64 `json:"precision"`
	// Recall is tp/truthPos over post-warmup windows; 0 when TruthWindows
	// is 0, where the ratio is undefined.
	Recall float64 `json:"recall"`
	// ScoredAnomalousWindows is precision's denominator (tp+fp): anomalous
	// windows after warmup.
	ScoredAnomalousWindows int `json:"scored_anomalous_windows"`
	// TruthWindows is recall's denominator: post-warmup windows overlapping
	// a ground-truth effect region, anomalous or not.
	TruthWindows int `json:"truth_windows"`

	TotalPerturbations    int            `json:"total_perturbations"`
	DetectedPerturbations int            `json:"detected_perturbations"`
	MeanDeltaSMs          float64        `json:"mean_delta_s_ms"`
	MeanDeltaEMs          float64        `json:"mean_delta_e_ms"`
	Perturbations         []Perturbation `json:"perturbations"`
}

// Learn executes just the learning step: a clean reference run of the
// same workload, fitted with core.Learn. The returned Learned is
// immutable; it can back any number of concurrent RunWithLearned calls —
// sweeps use this to share one model across every cell that only varies
// monitoring knobs (alpha, factor).
func Learn(opts Options) (*core.Learned, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	refCfg := opts.Sim
	refCfg.Duration = opts.RefDuration
	refCfg.Load = perturb.None{}
	refCfg.Seed = opts.Seed
	refSim, err := mediasim.New(refCfg)
	if err != nil {
		return nil, err
	}
	learned, err := core.Learn(opts.Core, refSim)
	if err != nil {
		return nil, fmt.Errorf("eval: learning reference model: %w", err)
	}
	return learned, nil
}

// Run executes the experiment: Learn, then RunWithLearned.
func Run(opts Options) (*Report, error) {
	learned, err := Learn(opts)
	if err != nil {
		return nil, err
	}
	return RunWithLearned(opts, learned)
}

// perturbedRun builds the monitored run: the reference workload under the
// perturbation schedule, with the schedule's intervals as ground truth.
func perturbedRun(opts Options) (*mediasim.Sim, []perturb.Interval, error) {
	var load perturb.Load = perturb.None{}
	var truth []perturb.Interval
	if opts.Factor > 1 {
		ivs, err := perturb.Periodic(opts.Factor, opts.PerturbFirst,
			opts.PerturbPeriod, opts.PerturbDuration, opts.RunDuration)
		if err != nil {
			return nil, nil, err
		}
		load = ivs
		truth = ivs.Spans
	}
	runCfg := opts.Sim
	runCfg.Duration = opts.RunDuration
	runCfg.Load = load
	runCfg.Seed = opts.Seed + opts.RunSeedOffset
	sim, err := mediasim.New(runCfg)
	return sim, truth, err
}

// RunWithLearned executes the monitoring step of the experiment against
// an already-learned model (from Learn with compatible options: same
// seed, durations, simulator shape, and the learning-relevant core
// fields — distances, K, smoothing, window). The learned model is only
// read, never mutated, so concurrent calls may share one instance.
func RunWithLearned(opts Options, learned *core.Learned) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	runSim, truth, err := perturbedRun(opts)
	if err != nil {
		return nil, err
	}

	// Decisions are scored online — the callback feeds the incremental
	// Scorer directly, so an arbitrarily long run needs O(len(truth))
	// memory, not O(windows).
	scorer := NewScorer(truth, opts.Slack, opts.Warmup)
	mon, err := core.NewMonitor(opts.Core, learned)
	if err != nil {
		return nil, fmt.Errorf("eval: monitoring perturbed run: %w", err)
	}
	runStats, err := mon.Run(runSim, recorder.NewNullSink(), func(d core.Decision) error {
		scorer.Observe(d.Window.Start, d.Window.End, d.Anomalous)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("eval: monitoring perturbed run: %w", err)
	}

	rep := &Report{
		Name:            "enduratrace-eval",
		Seed:            opts.Seed,
		RefDurationS:    opts.RefDuration.Seconds(),
		RunDurationS:    opts.RunDuration.Seconds(),
		Factor:          opts.Factor,
		Alpha:           opts.Core.Alpha,
		K:               opts.Core.K,
		WindowMS:        float64(opts.Core.WindowDuration) / float64(time.Millisecond),
		GateThreshold:   mon.GateThreshold(),
		GateDistance:    opts.Core.GateDistance.Name,
		LOFDistance:     opts.Core.LOFDistance.Name,
		RefWindows:      learned.RefWindows,
		RefTrainP95LOF:  stats.Quantile(learned.Model.TrainScores(), 0.95),
		Windows:         runStats.Windows,
		GateTrips:       runStats.GateTrips,
		Anomalies:       runStats.Anomalies,
		RecordedWindows: runStats.RecWindows,
		FullBytes:       runStats.FullBytes,
		RecordedBytes:   runStats.RecBytes,
	}
	if rf, ok := runStats.ReductionFactor(); ok {
		rep.ReductionFactor = &rf
	}

	scorer.Finish(rep)
	return rep, nil
}
