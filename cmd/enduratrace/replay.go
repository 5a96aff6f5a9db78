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
	modelPath := fs.String("model", "", "learned model file to replay against, or a directory whose every *.json model is replayed (required)")
	alpha := fs.Float64("alpha", 0, "what-if LOF threshold overriding every model's own, >= 1 (0 = keep each model's alpha)")
	out := fs.String("out", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		fs.Usage()
		return fmt.Errorf("replay: -store is required")
	}
	if *modelPath == "" {
		fs.Usage()
		return fmt.Errorf("replay: -model is required")
	}

	models, err := core.LoadModels(*modelPath)
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
