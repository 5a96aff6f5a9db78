package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"enduratrace/internal/core"
	"enduratrace/internal/distance"
	"enduratrace/internal/eval"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/stats"
)

// coreFlags declares the monitor-configuration flags, defaulting every
// knob from def so the tuned experiment configuration lives in exactly one
// place (eval.DefaultOptions). It returns a builder that assembles the
// final core.Config.
func coreFlags(fs *flag.FlagSet, def core.Config) func() (core.Config, error) {
	window := fs.Duration("window", def.WindowDuration, "time-window length")
	k := fs.Int("k", def.K, "LOF neighbourhood size")
	alpha := fs.Float64("alpha", def.Alpha, "LOF anomaly threshold")
	gate := fs.String("gate", def.GateDistance.Name, fmt.Sprintf("gate distance, one of %v", distance.Names()))
	applyGate := gateFlags(fs, def)
	lofDist := fs.String("lof-distance", def.LOFDistance.Name, fmt.Sprintf("LOF dissimilarity, one of %v", distance.Names()))
	smoothing := fs.Float64("smoothing", def.Smoothing, "additive pmf smoothing epsilon")
	rate := fs.Bool("rate", def.IncludeRate, "append the saturating event-rate feature")
	return func() (core.Config, error) {
		cfg := def
		cfg.NumTypes = mediasim.NumEventTypes
		cfg.WindowDuration = *window
		cfg.K = *k
		cfg.Alpha = *alpha
		cfg.Smoothing = *smoothing
		cfg.IncludeRate = *rate
		if err := applyGate(&cfg); err != nil {
			return cfg, err
		}
		var err error
		if cfg.GateDistance, err = distance.ByName(*gate); err != nil {
			return cfg, err
		}
		if cfg.LOFDistance, err = distance.ByName(*lofDist); err != nil {
			return cfg, err
		}
		return cfg, cfg.Validate()
	}
}

// gateFlags declares -gate-threshold and -gate-auto-q, the threshold
// defaulting from def, and returns what applies them to a configuration:
// a number fixes the threshold, the literal "auto" enables
// reference-quantile calibration at the -gate-auto-q quantile.
func gateFlags(fs *flag.FlagSet, def core.Config) func(*core.Config) error {
	val := fs.String("gate-threshold", fmt.Sprintf("%g", def.GateThreshold),
		"gate distance above which LOF runs, or 'auto' to calibrate from the reference trace's gate-distance quantiles")
	q := fs.Float64("gate-auto-q", core.DefaultGateAutoQuantile, "reference quantile used by '-gate-threshold auto'")
	return func(cfg *core.Config) error {
		if *val == "auto" {
			cfg.GateAuto, cfg.GateAutoQuantile = true, *q
			return nil
		}
		thr, err := strconv.ParseFloat(*val, 64)
		if err != nil {
			return fmt.Errorf("bad -gate-threshold %q (want a number or 'auto'): %w", *val, err)
		}
		cfg.GateAuto, cfg.GateThreshold = false, thr
		return nil
	}
}

func cmdLearn(args []string) error {
	fs := newFlagSet("learn")
	in := fs.String("in", "", "reference trace file ('-' for stdin; required)")
	modelOut := fs.String("model", "model.json", "output model file")
	jsonOut := fs.Bool("json", false, "print the summary as JSON on stdout")
	mkCfg := coreFlags(fs, eval.DefaultOptions().Core)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := mkCfg()
	if err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("learn: -in is required")
	}
	r, closer, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer closer()

	learned, err := core.Learn(cfg, r)
	if err != nil {
		return err
	}
	if err := core.SaveModelFile(*modelOut, cfg, learned); err != nil {
		return err
	}

	scores := learned.Model.TrainScores()
	summary := struct {
		Model         string   `json:"model"`
		RefWindows    int      `json:"ref_windows"`
		ModelPoints   int      `json:"model_points"`
		MeanCount     float64  `json:"mean_count"`
		TrainP50      float64  `json:"train_lof_p50"`
		TrainP95      float64  `json:"train_lof_p95"`
		TrainP99      float64  `json:"train_lof_p99"`
		GateThreshold *float64 `json:"auto_gate_threshold,omitempty"`
	}{
		Model:       *modelOut,
		RefWindows:  learned.Model.Len(),
		ModelPoints: learned.Model.Len(),
		MeanCount:   learned.Featurizer.RateScale,
		TrainP50:    stats.Quantile(scores, 0.50),
		TrainP95:    stats.Quantile(scores, 0.95),
		TrainP99:    stats.Quantile(scores, 0.99),
	}
	if learned.AutoGateThreshold > 0 {
		summary.GateThreshold = &learned.AutoGateThreshold
	}
	fmt.Fprintf(os.Stderr,
		"learn: %d reference windows (mean %.1f events), train LOF p50=%.3f p95=%.3f p99=%.3f\nlearn: model written to %s\n",
		summary.RefWindows, summary.MeanCount, summary.TrainP50, summary.TrainP95, summary.TrainP99, *modelOut)
	if learned.AutoGateThreshold > 0 {
		fmt.Fprintf(os.Stderr, "learn: auto gate threshold %.4g (%s, q=%.3g)\n",
			learned.AutoGateThreshold, cfg.GateDistance.Name, cfg.GateAutoQuantile)
	}
	if *jsonOut {
		return emitJSON(&summary, "")
	}
	return nil
}
