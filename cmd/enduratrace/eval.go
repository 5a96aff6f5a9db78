package main

import (
	"fmt"
	"os"
	"time"

	"enduratrace/internal/eval"
)

func cmdEval(args []string) (err error) {
	fs := newFlagSet("eval")
	opts := eval.DefaultOptions()
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "experiment seed")
	fs.DurationVar(&opts.RefDuration, "ref-duration", opts.RefDuration, "clean reference run length")
	fs.DurationVar(&opts.RunDuration, "run-duration", opts.RunDuration, "perturbed monitored run length (any length: decisions are scored as they stream)")
	fs.Float64Var(&opts.Schedule.Factor, "factor", opts.Schedule.Factor, "CPU slowdown during perturbations")
	scheduleFlags(fs, &opts.Schedule)
	fs.DurationVar(&opts.Slack, "slack", opts.Slack, "post-interval slack when matching detections")
	fs.DurationVar(&opts.Warmup, "warmup", opts.Warmup, "startup transient excluded from precision/recall")
	mkCfg := coreFlags(fs, opts.Core)
	out := fs.String("out", "", "also write the JSON report to this file (e.g. BENCH_eval.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opts.Core, err = mkCfg(); err != nil {
		return err
	}

	start := time.Now()
	rep, err := eval.Run(opts)
	if err != nil {
		return err
	}
	printEvalReport(rep, time.Since(start))
	return emitJSON(rep, *out)
}

// printEvalReport writes the human summary of a scored run to stderr.
func printEvalReport(rep *eval.Report, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "eval: %d windows, %d gate trips, %d anomalous (%.1fs wall)\n",
		rep.Windows, rep.GateTrips, rep.Anomalies, elapsed.Seconds())
	fmt.Fprintf(os.Stderr, "eval: reduction %s (%d of %d bytes), precision %.3f, recall %.3f\n",
		reductionString(rep.ReductionFactor), rep.RecordedBytes, rep.FullBytes,
		rep.Precision, rep.Recall)
	fmt.Fprintf(os.Stderr, "eval: detected %d/%d perturbations, mean Δs %.0f ms, mean Δe %.0f ms\n",
		rep.DetectedPerturbations, rep.TotalPerturbations, rep.MeanDeltaSMs, rep.MeanDeltaEMs)
	for _, p := range rep.Perturbations {
		if p.Detected {
			fmt.Fprintf(os.Stderr, "eval:   [%6.1fs %6.1fs) detected, Δs=%6.0f ms Δe=%6.0f ms, %d windows\n",
				p.StartS, p.EndS, *p.DeltaSMs, *p.DeltaEMs, p.Windows)
		} else {
			fmt.Fprintf(os.Stderr, "eval:   [%6.1fs %6.1fs) MISSED\n", p.StartS, p.EndS)
		}
	}
}
