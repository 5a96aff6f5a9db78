package main

import (
	"flag"
	"fmt"
	"os"

	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
)

// cmdReplay is the forensic/regression half of the anomaly store: re-score
// evidence captured by a live daemon against any model from the registry,
// and report what each model makes of it now — still-detected / lost /
// new-detection per incident. With -alpha it doubles as a threshold
// what-if tuner over real traffic. A raw trace is re-scored by monitor,
// one run per model.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("enduratrace replay", flag.ContinueOnError)
	storeDir := fs.String("store", "", "anomaly store directory captured by 'enduratrace serve -anomaly-store' (required)")
	modelIn := fs.String("model", "", "single learned model file to replay against")
	modelsDir := fs.String("models", "", "directory of model JSON files; every model in it is replayed (overrides -model)")
	alpha := fs.Float64("alpha", 0, "what-if LOF threshold overriding every model's own, >= 1 (0 = keep each model's alpha)")
	out := fs.String("out", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		fs.Usage()
		return fmt.Errorf("replay: -store is required")
	}

	models, err := replayModels(*modelsDir, *modelIn, *alpha)
	if err != nil {
		return err
	}
	rep, err := anomalystore.Replay(*storeDir, models, *alpha)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "replay: store %s: %d incidents across %d segments", *storeDir, rep.Incidents, rep.Segments)
	if rep.TruncatedSegments > 0 {
		fmt.Fprintf(os.Stderr, " (%d with a truncated tail — crash damage, intact records replayed)", rep.TruncatedSegments)
	}
	fmt.Fprintln(os.Stderr)
	for _, mr := range rep.Models {
		fmt.Fprintf(os.Stderr,
			"replay: model %-12s alpha %.2f: %4d still-detected, %4d lost, %4d new, %4d still-clear\n",
			mr.Model, mr.Alpha, mr.StillDetected, mr.Lost, mr.NewDetections, mr.StillClear)
		for _, v := range mr.Verdicts {
			if v.Verdict == anomalystore.VerdictLost || v.Verdict == anomalystore.VerdictNewDetection {
				fmt.Fprintf(os.Stderr, "replay:   #%d %s (%s): recorded %.2f → %.2f, %s\n",
					v.Seq, v.Stream, v.RecordedModel, v.RecordedScore, v.Score, v.Verdict)
			}
		}
	}
	return emitJSON(rep, *out)
}

// replayModels assembles the model list: every model of a -models
// directory, or the single -model file (named after the path convention
// serve uses). A non-zero alpha becomes every model's threshold, validated
// with the rest of its Cfg when the model is replayed.
func replayModels(modelsDir, modelFile string, alpha float64) ([]*core.NamedModel, error) {
	var models []*core.NamedModel
	switch {
	case modelsDir != "":
		var err error
		if models, err = core.LoadModelDirAll(modelsDir); err != nil {
			return nil, err
		}
	case modelFile == "":
		return nil, fmt.Errorf("replay: one of -models and -model is required")
	default:
		cfg, learned, err := core.LoadModelFile(modelFile)
		if err != nil {
			return nil, err
		}
		models = []*core.NamedModel{{Name: "default", Cfg: cfg, Learned: learned}}
	}
	if alpha != 0 {
		for _, nm := range models {
			nm.Cfg.Alpha = alpha
		}
	}
	return models, nil
}
