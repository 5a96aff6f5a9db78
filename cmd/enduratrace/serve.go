package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/eval"
	"enduratrace/internal/mediasim"
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
	compress := fs.Int("compress", -1, "flate level for -rec-dir sinks (-1 = no compression)")
	anomDir := fs.String("anomaly-store", "", "persist every gate trip (context windows + scores) to a segmented store in this directory; query via GET /anomalies, re-score via 'enduratrace replay'")
	anomCtx := fs.Int("anomaly-context", 0, "pre-trip context windows per stored incident (0 = default 2, negative = none)")
	anomSegBytes := fs.Int64("anomaly-segment-bytes", 0, "anomaly store segment rotation size in bytes (0 = default 8 MiB)")
	alertLog := fs.Bool("alert-log", false, "alerting: log firing/resolved notifications through the daemon logger")
	alertWebhook := fs.String("alert-webhook", "", "alerting: POST each notification as JSON to this URL (bounded retries with backoff)")
	alertExec := fs.String("alert-exec", "", "alerting: run this shell command per notification with its JSON on stdin")
	alertMinTrips := fs.Int("alert-min-trips", 0, "alerting: consecutive anomalous windows before an incident fires (0 = default 3)")
	alertClearAfter := fs.Duration("alert-clear-after", 0, "alerting: quiet time after the last trip before an incident resolves (0 = default 30s)")
	alertTripOnGate := fs.Bool("alert-trip-on-gate", false, "alerting: count every gate trip toward firing (default: only anomalous windows)")
	alertDedupTTL := fs.Duration("alert-dedup-ttl", 0, "alerting: suppress repeat notifications with the same content key for this long (0 = default 5m, negative = off)")
	alertDedupQuantum := fs.Float64("alert-dedup-quantum", 0, "alerting: gate-distance quantization step for the dedup key (0 = default 0.01)")
	alertRate := fs.Float64("alert-rate", 0, "alerting: global notification token-bucket refill per second (0 = unlimited)")
	alertBurst := fs.Float64("alert-burst", 0, "alerting: global token-bucket burst (0 = rate)")
	alertSinkRate := fs.Float64("alert-sink-rate", 0, "alerting: per-sink delivery token-bucket refill per second (0 = unlimited)")
	alertSinkBurst := fs.Float64("alert-sink-burst", 0, "alerting: per-sink token-bucket burst (0 = rate)")
	alertQueue := fs.Int("alert-queue", 0, "alerting: dispatch queue length; overflow is dropped and counted, never waited on (0 = default 256)")
	alertTimeout := fs.Duration("alert-timeout", 0, "alerting: per-delivery timeout (0 = default 10s)")
	selftestAlerts := fs.Bool("selftest-alerts", false, "alerting selftest: fake-clock flapping-stream choreography (exactly-once firing, balanced books, zero-alloc fast path), then exit")
	queue := fs.Int("queue", 1024, "per-stream bounded event queue length")
	bp := fs.String("backpressure", "block", "full-queue policy: block (TCP backpressure) or drop-oldest")
	alpha := fs.Float64("alpha", 0, "override the model's LOF threshold (0 = keep; single-model and in-process selftest only)")
	logFormat := fs.String("log-format", "text", "daemon log format on stderr: text or json (both timestamped)")
	pprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the admin listener")
	flightEvery := fs.Int("flight-every", 0, "flight recorder: sample every Nth event per stream (0 = default 256, negative = disable)")
	flightCap := fs.Int("flight-cap", 0, "flight recorder: retained record ring size (0 = default 512)")
	stallAfter := fs.Duration("stall-after", 0, "flag a stream stalled when its queue holds events but the scorer makes no progress for this long (0 = default 30s, negative = disable)")
	jsonOut := fs.Bool("json", false, "print the final report as JSON on stdout")
	selftest := fs.Bool("selftest", false, "loopback load test: fan simulated clients through real sockets, verify the books, exit")
	selftestModels := fs.Int("selftest-models", 1, "selftest: in-process models to learn when no -models dir is given (2 = two-model registry exercising per-stream model selection and a mid-run reload)")
	clients := fs.Int("clients", 8, "selftest: number of concurrent loopback clients")
	clientDur := fs.Duration("client-duration", 30*time.Second, "selftest: simulated trace time per client")
	clientSeed := fs.Int64("client-seed", 100, "selftest: client i simulates seed client-seed+i")
	clientFactor := fs.Float64("client-factor", 3, "selftest: periodic CPU perturbation factor per client (1 = clean)")
	refDur := fs.Duration("ref-duration", 30*time.Second, "selftest: reference run length when learning in-process (no model file)")
	fastKernels := fs.Bool("fast-kernels", false, "in-process learned models (selftest / missing -model) score through precomputed-log KL-family kernels (~1e-9 relative error, about twice as fast as the bit-exact default); file-loaded models keep their saved setting")
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy, err := serve.ParseBackpressure(*bp)
	if err != nil {
		return err
	}
	logger, err := serve.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		return err
	}
	if *selftestAlerts {
		fmt.Fprintln(os.Stderr, "serve: alert selftest, fake-clock flapping-stream choreography")
		if err := alert.FlappingSelftest(logger); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "serve: alert selftest OK: exactly-once firing/resolution, delivery books balanced, no-alert fast path allocation-free")
		return nil
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
		alertSinks = append(alertSinks, alert.NewWebhookSink(*alertWebhook, alert.WebhookOptions{}))
	}
	if *alertExec != "" {
		alertSinks = append(alertSinks, alert.NewExecSink(*alertExec))
	}
	var alerts *alert.Pipeline
	if len(alertSinks) > 0 {
		alerts = alert.NewPipeline(alert.Options{
			MinTrips:        *alertMinTrips,
			ClearAfter:      *alertClearAfter,
			TripOnGate:      *alertTripOnGate,
			DedupTTL:        *alertDedupTTL,
			DedupQuantum:    *alertDedupQuantum,
			GlobalRate:      *alertRate,
			GlobalBurst:     *alertBurst,
			SinkRate:        *alertSinkRate,
			SinkBurst:       *alertSinkBurst,
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
			fmt.Fprintf(os.Stderr, "serve: alerts: %d fired, %d resolved; %d delivered, %d deduped, %d rate-limited, %d dropped, %d errors\n",
				b.Fired, b.Resolved, delivered, b.Deduped, b.RateLimited(), b.QueueDropped, errs)
		}()
	}

	models, cleanup, err := serveRegistry(serveRegistryOptions{
		modelsDir:      *modelsDir,
		defaultModel:   *defaultModel,
		modelFile:      *modelIn,
		selftest:       *selftest,
		selftestModels: *selftestModels,
		refDur:         *refDur,
		alpha:          *alpha,
		fastKernels:    *fastKernels,
	})
	if err != nil {
		return err
	}
	if cleanup != nil {
		defer cleanup()
	}

	if *selftest {
		opts := serve.SelftestOptions{
			Models:       models,
			Clients:      *clients,
			Duration:     *clientDur,
			SeedBase:     *clientSeed,
			Factor:       *clientFactor,
			QueueLen:     *queue,
			Backpressure: policy,
			Sinks:        sinks,
			Anomalies:    anomalies,
			Alerts:       alerts,
			Logger:       logger,
		}
		if models.Len() > 1 {
			// Exercise the whole matrix: one v1-framed client on the
			// default model, the rest naming each registry model in turn,
			// with a hot reload fired while everything is mid-stream — and
			// one doomed client whose rejection the books must show.
			opts.ClientModels = append([]string{""}, models.Names()...)
			opts.ReloadMidRun = true
			opts.RejectClients = 1
		}
		return serveSelftest(opts, *jsonOut)
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

type serveRegistryOptions struct {
	modelsDir      string
	defaultModel   string
	modelFile      string
	selftest       bool
	selftestModels int
	refDur         time.Duration
	alpha          float64
	fastKernels    bool
}

// serveRegistry assembles the model registry the daemon serves from, in
// precedence order: an explicit -models directory (hot-reloadable), the
// selftest's in-process multi-model temp directory, a single -model file,
// or — selftest only — a single model learned in-process from a clean
// simulated reference so the selftest runs from a bare checkout. The
// returned cleanup (possibly nil) removes any temp directory.
func serveRegistry(o serveRegistryOptions) (*core.ModelRegistry, func(), error) {
	if o.modelsDir != "" {
		if o.alpha > 0 {
			return nil, nil, fmt.Errorf("serve: -alpha cannot override a -models registry; set alpha per model file")
		}
		reg, err := core.LoadModelDir(o.modelsDir, o.defaultModel)
		return reg, nil, err
	}

	if o.selftest && o.selftestModels > 1 {
		return selftestModelDir(o)
	}

	cfg, learned, err := core.LoadModelFile(o.modelFile)
	if err == nil {
		if o.alpha > 0 {
			cfg.Alpha = o.alpha
		}
		reg, err := core.NewModelRegistry("",
			&core.NamedModel{Name: "default", Cfg: cfg, Learned: learned})
		return reg, nil, err
	}
	if !o.selftest || !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "serve: no model at %s, learning in-process from a %v clean reference\n", o.modelFile, o.refDur)
	cfg, learned, err = learnInProcess(1, o.refDur, o.alpha, o.fastKernels)
	if err != nil {
		return nil, nil, err
	}
	reg, err := core.NewModelRegistry("",
		&core.NamedModel{Name: "default", Cfg: cfg, Learned: learned})
	return reg, nil, err
}

// selftestModelDir learns selftestModels models in-process (model i from
// reference seed i+1, named "a", "b", ...), writes them into a temp
// directory and loads it as a hot-reloadable registry with "a" as the
// default — the two-model reload-under-load selftest's fixture.
func selftestModelDir(o serveRegistryOptions) (*core.ModelRegistry, func(), error) {
	n := o.selftestModels
	if n > 26 {
		return nil, nil, fmt.Errorf("serve: -selftest-models %d exceeds 26", n)
	}
	dir, err := os.MkdirTemp("", "enduratrace-selftest-models-")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	fmt.Fprintf(os.Stderr, "serve: selftest, learning %d in-process models (%v clean reference each) into %s\n",
		n, o.refDur, dir)
	for i := 0; i < n; i++ {
		cfg, learned, err := learnInProcess(int64(i+1), o.refDur, o.alpha, o.fastKernels)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		name := string(rune('a' + i))
		if err := core.SaveModelFile(filepath.Join(dir, name+".json"), cfg, learned); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	reg, err := core.LoadModelDir(dir, "a")
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return reg, cleanup, nil
}

// learnInProcess learns one model from a clean simulated reference.
func learnInProcess(seed int64, refDur time.Duration, alpha float64, fastKernels bool) (core.Config, *core.Learned, error) {
	cfg := eval.DefaultOptions().Core
	if alpha > 0 {
		cfg.Alpha = alpha
	}
	cfg.FastKernels = fastKernels
	sc := mediasim.DefaultConfig()
	sc.Duration = refDur
	sc.Seed = seed
	sim, err := mediasim.New(sc)
	if err != nil {
		return core.Config{}, nil, err
	}
	learned, err := core.Learn(cfg, sim)
	if err != nil {
		return core.Config{}, nil, err
	}
	return cfg, learned, nil
}

func serveSelftest(opts serve.SelftestOptions, jsonOut bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	mode := "single-model"
	if opts.Models.Len() > 1 {
		mode = fmt.Sprintf("%d-model registry [%s] with mid-run reload", opts.Models.Len(), strings.Join(opts.Models.Names(), " "))
	}
	fmt.Fprintf(os.Stderr, "serve: selftest, %d loopback clients × %v trace each over a %s\n",
		opts.Clients, opts.Duration, mode)
	rep, err := serve.Selftest(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"serve: selftest OK: %d clients, %d events / %d windows in %.2fs wall (%.0f events/s, %.0f windows/s)\n",
		rep.Clients, rep.EventsSent, rep.WindowsSent, rep.WallS, rep.EventsPerS, rep.WindowsPerS)
	books := fmt.Sprintf("/stats windows %d == sent %d", rep.Stats.Windows, rep.WindowsSent)
	if rep.Stats.DroppedEvents > 0 {
		books = fmt.Sprintf("/stats windows %d of %d sent (%d events shed by drop-oldest, all on record)",
			rep.Stats.Windows, rep.WindowsSent, rep.Stats.DroppedEvents)
	}
	fmt.Fprintf(os.Stderr,
		"serve: selftest books: %s; %d anomalies, recorded %d of %d bytes (reduction %s); /metrics %d samples\n",
		books, rep.Stats.Anomalies,
		rep.Stats.RecordedBytes, rep.Stats.FullBytes, reductionString(rep.Stats.ReductionFactor),
		rep.MetricsSamples)
	fmt.Fprintf(os.Stderr,
		"serve: selftest latency (event→decision, %d events): p50 %.3fms, p99 %.3fms, p99.9 %.3fms\n",
		rep.EventsObserved, rep.LatencyP50Ms, rep.LatencyP99Ms, rep.LatencyP999Ms)
	for model, w := range rep.ModelWindows {
		fmt.Fprintf(os.Stderr, "serve: selftest model %q scored %d windows\n", model, w)
	}
	if opts.Anomalies != nil {
		st := opts.Anomalies.Stats()
		fmt.Fprintf(os.Stderr, "serve: selftest anomaly store: %d incidents persisted == %d gate trips (%d segments, %d bytes)\n",
			rep.Stats.AnomalyIncidents, rep.Stats.GateTrips, st.Segments, st.Bytes)
	}
	if rep.Reload != nil {
		fmt.Fprintf(os.Stderr, "serve: selftest mid-run reload #%d OK (models [%s], default %q)\n",
			rep.Reload.Generation, strings.Join(rep.Reload.Models, " "), rep.Reload.Default)
	}
	if b := rep.Alerts; b != nil {
		var delivered, errs int64
		for _, sb := range b.Sinks {
			delivered += sb.Delivered
			errs += sb.Errors
		}
		fmt.Fprintf(os.Stderr,
			"serve: selftest alerts balanced: %d fired + %d resolved == %d delivered + %d deduped + %d rate-limited + %d dropped + %d errors; %d transitions persisted\n",
			b.Fired, b.Resolved, delivered, b.Deduped, b.RateLimited(), b.QueueDropped, errs, rep.Stats.AlertTransitions)
	}
	if jsonOut {
		return emitJSON(rep, "")
	}
	return nil
}
