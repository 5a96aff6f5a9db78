package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/recorder"
	"enduratrace/internal/serve"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("enduratrace serve", flag.ContinueOnError)
	modelIn := fs.String("model", "model.json", "learned model file (from 'enduratrace learn'; single-model serving)")
	modelsDir := fs.String("models", "", "directory of model JSON files served as a named registry (overrides -model; model name = file base name)")
	defaultModel := fs.String("default-model", "", "registry model served to streams that do not name one (required when -models holds several)")
	listen := fs.String("listen", "127.0.0.1:9464", "trace ingestion TCP address")
	admin := fs.String("admin", "127.0.0.1:9465", "HTTP admin address (/healthz /streams /stats /metrics, POST /reload; '' disables)")
	recDir := fs.String("rec-dir", "", "record each stream's anomalous windows to <dir>/<stream>.etrc ('' = stat-only)")
	compress := fs.Int("compress", -1, "flate level for -rec-dir sinks (-1 = no compression); a compressed .etrc.fz recording is raw DEFLATE that no enduratrace reader opens")
	anomDir := fs.String("anomaly-store", "", "persist every gate trip (context windows + scores) to a segmented store in this directory; query via GET /anomalies, re-score via 'enduratrace replay'")
	anomCtx := fs.Int("anomaly-context", 0, "pre-trip context windows per stored incident (0 = default 2, negative = none)")
	anomSegBytes := fs.Int64("anomaly-segment-bytes", 0, "anomaly store segment rotation size in bytes (0 = default 8 MiB)")
	alertLog := fs.Bool("alert-log", false, "alerting: log firing/resolved notifications through the daemon logger")
	alertWebhook := fs.String("alert-webhook", "", "alerting: POST each notification as JSON to this URL (bounded retries with backoff)")
	alertMinTrips := fs.Int("alert-min-trips", 0, "alerting: consecutive anomalous windows before an incident fires (0 = default 3)")
	alertClearAfter := fs.Duration("alert-clear-after", 0, "alerting: quiet time after the last trip before an incident resolves (0 = default 30s)")
	alertTripOnGate := fs.Bool("alert-trip-on-gate", false, "alerting: count every gate trip toward firing (default: only anomalous windows)")
	alertRate := fs.Float64("alert-rate", 0, "alerting: global notification token-bucket refill per second (0 = unlimited)")
	alertBurst := fs.Float64("alert-burst", 0, "alerting: global token-bucket burst (0 = rate)")
	alertQueue := fs.Int("alert-queue", 0, "alerting: dispatch queue length; overflow is dropped and counted, never waited on (0 = default 256)")
	alertTimeout := fs.Duration("alert-timeout", 0, "alerting: per-delivery timeout (0 = default 10s)")
	queue := fs.Int("queue", 1024, "per-stream bounded event queue length")
	bp := fs.String("backpressure", "block", "full-queue policy: block (TCP backpressure) or drop-oldest")
	alpha := fs.Float64("alpha", 0, "override the model's LOF threshold, >= 1 (0 = keep; single-model only)")
	logFormat := fs.String("log-format", "text", "daemon log format on stderr: text or json (both timestamped)")
	pprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the admin listener")
	flightEvery := fs.Int("flight-every", 0, "flight recorder: sample every Nth event per stream (0 = default 256, negative = disable)")
	flightCap := fs.Int("flight-cap", 0, "flight recorder: retained record ring size (0 = default 512)")
	stallAfter := fs.Duration("stall-after", 0, "flag a stream stalled when its queue holds events but the scorer makes no progress for this long (0 = default 30s, negative = disable)")
	jsonOut := fs.Bool("json", false, "print the final report as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Zero selects each default; a negative value has no meaning here,
	// unlike the flags whose help gives it one.
	for _, f := range []struct {
		name string
		neg  bool
	}{
		{"queue", *queue < 0}, {"flight-cap", *flightCap < 0}, {"anomaly-segment-bytes", *anomSegBytes < 0},
		{"alert-min-trips", *alertMinTrips < 0}, {"alert-clear-after", *alertClearAfter < 0},
		{"alert-queue", *alertQueue < 0}, {"alert-timeout", *alertTimeout < 0},
	} {
		if f.neg {
			return fmt.Errorf("serve: -%s must not be negative, got %s", f.name, fs.Lookup(f.name).Value)
		}
	}
	// A NaN rate admits nothing, ever; a negative rate with a burst admits
	// that burst once for the daemon's whole life.
	for _, f := range []struct {
		name string
		v    float64
	}{{"alert-rate", *alertRate}, {"alert-burst", *alertBurst}} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("serve: -%s must be finite and not negative, got %v", f.name, f.v)
		}
	}

	policy, err := serve.ParseBackpressure(*bp)
	if err != nil {
		return err
	}
	logger, err := serve.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		return err
	}
	models, err := serveRegistry(*modelsDir, *defaultModel, *modelIn, *alpha)
	if err != nil {
		return err
	}
	var sinks recorder.SinkFactory
	if *recDir != "" {
		if sinks, err = recorder.NewDirFactory(*recDir, *compress); err != nil {
			return err
		}
	}
	var anomalies *anomalystore.Store
	if *anomDir != "" {
		anomalies, err = anomalystore.Open(*anomDir, anomalystore.Options{SegmentBytes: *anomSegBytes})
		if err != nil {
			return err
		}
		defer func() {
			st := anomalies.Stats()
			if cerr := anomalies.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "serve: closing anomaly store: %v\n", cerr)
			}
			fmt.Fprintf(os.Stderr, "serve: anomaly store %s: %d incidents (%d recovered from earlier runs), %d segments, %d bytes\n",
				st.Dir, st.Incidents, st.Recovered, st.Segments, st.Bytes)
		}()
	}

	var alertSinks []alert.Sink
	if *alertLog {
		alertSinks = append(alertSinks, alert.NewSlogSink(logger))
	}
	if *alertWebhook != "" {
		alertSinks = append(alertSinks, alert.NewWebhookSink(*alertWebhook))
	}
	var alerts *alert.Pipeline
	if len(alertSinks) > 0 {
		alerts = alert.NewPipeline(alert.Options{
			MinTrips:        *alertMinTrips,
			ClearAfter:      *alertClearAfter,
			TripOnGate:      *alertTripOnGate,
			GlobalRate:      *alertRate,
			GlobalBurst:     *alertBurst,
			QueueLen:        *alertQueue,
			DeliveryTimeout: *alertTimeout,
			Sinks:           alertSinks,
		})
		// Registered after the anomaly store's deferred close, so this
		// runs first: queued notifications drain to the sinks while the
		// store is still open.
		defer func() {
			if !alerts.Drain(10 * time.Second) {
				fmt.Fprintln(os.Stderr, "serve: alert queue did not drain before close")
			}
			if cerr := alerts.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "serve: closing alert sinks: %v\n", cerr)
			}
			b := alerts.Books()
			var delivered, errs int64
			for _, sb := range b.Sinks {
				delivered += sb.Delivered
				errs += sb.Errors
			}
			fmt.Fprintf(os.Stderr, "serve: alerts: %d fired, %d resolved; %d delivered, %d rate-limited, %d dropped, %d errors\n",
				b.Fired, b.Resolved, delivered, b.RateLimited(), b.QueueDropped, errs)
		}()
	}

	srv, err := serve.New(serve.Options{
		Models:         models,
		QueueLen:       *queue,
		Backpressure:   policy,
		Sinks:          sinks,
		Anomalies:      anomalies,
		AnomalyContext: *anomCtx,
		Alerts:         alerts,
		Logger:         logger,
		FlightEvery:    *flightEvery,
		FlightCap:      *flightCap,
		StallAfter:     *stallAfter,
		EnablePprof:    *pprof,
	})
	if err != nil {
		return err
	}
	if err := srv.Listen(*listen, *admin); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: %d model(s) [%s], default %q, trace ingest on %s",
		models.Len(), strings.Join(models.Names(), " "), models.DefaultName(), srv.TraceAddr())
	if a := srv.AdminAddr(); a != nil {
		fmt.Fprintf(os.Stderr, ", admin on http://%s", a)
	}
	reloadHint := ""
	if models.Reloadable() {
		reloadHint = "SIGHUP or POST /reload to hot-reload models, "
	}
	fmt.Fprintf(os.Stderr, " (backpressure %s, queue %d); %sSIGINT to drain and stop\n", policy, *queue, reloadHint)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if models.Reloadable() {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if _, err := srv.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "serve: SIGHUP reload: %v\n", err)
				}
			}
		}()
	}
	if err := srv.Serve(ctx); err != nil {
		return err
	}

	results := srv.Results()
	stats := srv.Stats()
	for _, res := range results {
		fmt.Fprintf(os.Stderr,
			"serve: stream %-16s %7d windows, %5d trips, %4d anomalies, %d B recorded (model %s, clean=%v)\n",
			res.ID, res.Windows, res.GateTrips, res.Anomalies, res.RecordedBytes, res.Model, res.Clean)
	}
	fmt.Fprintf(os.Stderr,
		"serve: %d streams served: %d windows, %d gate trips, %d anomalies, recorded %d of %d bytes (reduction %s)\n",
		stats.StreamsClosed, stats.Windows, stats.GateTrips, stats.Anomalies,
		stats.RecordedBytes, stats.FullBytes, reductionString(stats.ReductionFactor))
	if *jsonOut {
		return emitJSON(struct {
			Stats   serve.StatsReport    `json:"stats"`
			Streams []serve.StreamResult `json:"streams"`
		}{stats, results}, "")
	}
	return nil
}

// serveRegistry assembles the model registry the daemon serves from: an
// explicit -models directory (hot-reloadable) takes precedence over a
// single -model file, whose threshold a non-zero alpha overrides.
func serveRegistry(modelsDir, defaultModel, modelFile string, alpha float64) (*core.ModelRegistry, error) {
	if modelsDir != "" {
		if alpha != 0 {
			return nil, fmt.Errorf("serve: -alpha cannot override a -models registry; set alpha per model file")
		}
		return core.LoadModelDir(modelsDir, defaultModel)
	}
	cfg, learned, err := core.LoadModelFile(modelFile)
	if err != nil {
		return nil, err
	}
	if alpha != 0 { // validated by the registry with the rest of cfg
		cfg.Alpha = alpha
	}
	return core.NewModelRegistry("", &core.NamedModel{Name: "default", Cfg: cfg, Learned: learned})
}
