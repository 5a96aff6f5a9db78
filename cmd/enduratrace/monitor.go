package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"enduratrace/internal/core"
	"enduratrace/internal/recorder"
)

func cmdMonitor(args []string) error {
	fs := flag.NewFlagSet("enduratrace monitor", flag.ContinueOnError)
	in := fs.String("in", "", "trace file to monitor ('-' for stdin; required)")
	modelIn := fs.String("model", "model.json", "learned model file (from 'enduratrace learn')")
	rec := fs.String("rec", "", "record anomalous windows to this binary trace file")
	compress := fs.Int("compress", -1, "flate level for -rec (-1 = no compression)")
	pre := fs.Int("pre", 0, "context windows to record before each anomaly")
	post := fs.Int("post", 0, "context windows to record after each anomaly")
	alpha := fs.Float64("alpha", 0, "override the model's LOF threshold (0 = keep)")
	jsonOut := fs.Bool("json", false, "print run statistics as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("monitor: -in is required")
	}
	if *pre < 0 || *post < 0 {
		return fmt.Errorf("monitor: -pre and -post must be >= 0, got %d and %d", *pre, *post)
	}

	cfg, learned, err := core.LoadModelFile(*modelIn)
	if err != nil {
		return err
	}
	if *alpha > 0 {
		cfg.Alpha = *alpha
	}

	r, closer, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer closer()

	var sink recorder.Sink = recorder.NewNullSink()
	closeRec := func() error { return nil }
	if *rec != "" {
		f, err := os.Create(*rec)
		if err != nil {
			return err
		}
		closeRec = f.Close
		ss, err := recorder.NewStreamSink(f, *compress)
		if err != nil {
			f.Close()
			return err
		}
		sink = ss
	}
	if *pre > 0 || *post > 0 {
		sink = recorder.NewContextSink(sink, *pre, *post)
	}

	stats, err := core.Run(cfg, learned, r, sink, nil)
	if err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if err := closeRec(); err != nil {
		return err
	}

	// Recompute the reduction from post-Close sizes: a stream sink only
	// reports its final byte count after the flush. Nil (JSON null) when
	// nothing was recorded — the ratio is undefined.
	var reduction *float64
	if rec := sink.BytesWritten(); rec > 0 {
		r := float64(stats.FullBytes) / float64(rec)
		reduction = &r
	}
	out := struct {
		Windows         int      `json:"windows"`
		GateTrips       int      `json:"gate_trips"`
		Anomalies       int      `json:"anomalies"`
		RecordedWindows int      `json:"recorded_windows"`
		FullBytes       int64    `json:"full_bytes"`
		RecordedBytes   int64    `json:"recorded_bytes"`
		ReductionFactor *float64 `json:"reduction_factor"`
		SpanS           float64  `json:"span_s"`
	}{
		Windows:         stats.Windows,
		GateTrips:       stats.GateTrips,
		Anomalies:       stats.Anomalies,
		RecordedWindows: sink.WindowsRecorded(),
		FullBytes:       stats.FullBytes,
		RecordedBytes:   sink.BytesWritten(),
		ReductionFactor: reduction,
		SpanS:           (stats.End - stats.Start).Seconds(),
	}
	fmt.Fprintf(os.Stderr,
		"monitor: %d windows over %.1fs, %d gate trips, %d anomalies\nmonitor: recorded %d windows, %d of %d bytes (reduction %s)\n",
		out.Windows, out.SpanS, out.GateTrips, out.Anomalies,
		out.RecordedWindows, out.RecordedBytes, out.FullBytes, reductionString(out.ReductionFactor))
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(&out)
	}
	return nil
}
