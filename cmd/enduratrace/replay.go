package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/recorder"
)

// cmdReplay is the forensic/regression half of the anomaly store: re-score
// evidence captured by a live daemon (-store) or a raw recorded trace
// (-in) against any model from the registry, and report what each model
// makes of it now — still-detected / lost / new-detection per incident.
// With -alpha it doubles as a threshold what-if tuner over real traffic.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("enduratrace replay", flag.ContinueOnError)
	storeDir := fs.String("store", "", "anomaly store directory captured by 'enduratrace serve -anomaly-store'")
	in := fs.String("in", "", "raw binary trace (.etrc) to re-monitor instead of a store ('-' for stdin)")
	modelIn := fs.String("model", "", "single learned model file to replay against")
	modelsDir := fs.String("models", "", "directory of model JSON files; every model in it is replayed (overrides -model)")
	defaultModel := fs.String("default-model", "", "registry default when -models holds several (accepted for symmetry with serve; replay scores with every model)")
	alpha := fs.Float64("alpha", 0, "what-if LOF threshold overriding every model's own, >= 1 (0 = keep each model's alpha)")
	out := fs.String("out", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*storeDir == "") == (*in == "") {
		fs.Usage()
		return fmt.Errorf("replay: exactly one of -store and -in is required")
	}

	models, err := replayModels(*modelsDir, *defaultModel, *modelIn, *alpha)
	if err != nil {
		return err
	}

	if *storeDir != "" {
		return replayStore(*storeDir, models, *alpha, *out)
	}
	return replayTrace(*in, models, *out)
}

// replayModels assembles the model list: every model of a -models
// directory, or the single -model file (named after the path convention
// serve uses). A non-zero alpha becomes every model's threshold, validated
// with the rest of its Cfg when the model is replayed.
func replayModels(modelsDir, defaultModel, modelFile string, alpha float64) ([]*core.NamedModel, error) {
	var models []*core.NamedModel
	switch {
	case modelsDir != "":
		var err error
		if models, err = core.LoadModelDirAll(modelsDir); err != nil {
			return nil, err
		}
		if defaultModel != "" { // put the named model first in the report
			for i, nm := range models {
				if nm.Name == defaultModel {
					models[0], models[i] = models[i], models[0]
					break
				}
			}
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

// replayStore re-scores a captured incident store against every model.
func replayStore(dir string, models []*core.NamedModel, alpha float64, out string) error {
	rep, err := anomalystore.Replay(dir, models, alpha)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "replay: store %s: %d incidents across %d segments", dir, rep.Incidents, rep.Segments)
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
	return emitJSON(rep, out)
}

// traceReplay is one model's outcome re-monitoring a raw trace — the
// store-less mode, for .etrc files recorded by monitor/serve sinks.
type traceReplay struct {
	Model           string   `json:"model"`
	Alpha           float64  `json:"alpha"`
	Windows         int      `json:"windows"`
	GateTrips       int      `json:"gate_trips"`
	Anomalies       int      `json:"anomalies"`
	FullBytes       int64    `json:"full_bytes"`
	RecordedBytes   int64    `json:"recorded_bytes"`
	ReductionFactor *float64 `json:"reduction_factor"`
	SpanS           float64  `json:"span_s"`
}

// replayTrace runs the full online monitor over a recorded trace once per
// model, reporting what each would have detected and recorded.
func replayTrace(in string, models []*core.NamedModel, out string) error {
	if in == "-" && len(models) > 1 {
		return errors.New("replay: -in '-' (stdin) cannot be replayed against multiple models; use a file")
	}
	results := make([]traceReplay, 0, len(models))
	for _, nm := range models {
		r, closer, err := openTrace(in)
		if err != nil {
			return err
		}
		sink := recorder.NewNullSink()
		stats, err := core.Run(nm.Cfg, nm.Learned, r, sink, nil)
		closer()
		if err != nil {
			return fmt.Errorf("replay: model %q: %w", nm.Name, err)
		}
		res := traceReplay{
			Model:         nm.Name,
			Alpha:         nm.Cfg.Alpha,
			Windows:       stats.Windows,
			GateTrips:     stats.GateTrips,
			Anomalies:     stats.Anomalies,
			FullBytes:     stats.FullBytes,
			RecordedBytes: sink.BytesWritten(),
			SpanS:         (stats.End - stats.Start).Seconds(),
		}
		if rf, ok := stats.ReductionFactor(); ok {
			res.ReductionFactor = &rf
		}
		results = append(results, res)
		fmt.Fprintf(os.Stderr,
			"replay: model %-12s alpha %.2f: %d windows over %.1fs, %d gate trips, %d anomalies\n",
			res.Model, res.Alpha, res.Windows, res.SpanS, res.GateTrips, res.Anomalies)
	}
	return emitJSON(struct {
		Name   string        `json:"name"`
		In     string        `json:"in"`
		Models []traceReplay `json:"models"`
	}{Name: "enduratrace-replay", In: in, Models: results}, out)
}
