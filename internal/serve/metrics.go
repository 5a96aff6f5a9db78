package serve

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/obs"
)

// Prometheus text exposition (version 0.0.4), hand-rolled: the format is
// a dozen lines of escaping rules, which is cheaper than a client library
// dependency and keeps the daemon's admin surface self-contained. The
// /stats JSON endpoint is unchanged; /metrics is the scrape-friendly view
// with per-model labels. Every family is one row of the families table
// below, which the writer, the scrape test and docs/CLI.md's table follow.

// scrape is what one /metrics response reads, once, before any line is
// written. Sources read the server's plain atomics straight off it.
type scrape struct {
	*Server
	uptime      float64
	registered  []string // the registry's models
	defaultName string
	// byModel folds closed streams' finals with live counters, one row per
	// registered model and per model a reload dropped; modelRows sorts its
	// keys.
	byModel   map[string]books
	modelRows []string
	stalled   int
	store     anomalystore.StoreStats
	syncLat   obs.Snapshot
	alerts    alert.Books
	pipeNames []string // models that have scored, sorted; pipes in that order
	pipes     []obs.PipelineSnapshot
	rt        obs.RuntimeStats
}

func (s *Server) readScrape() *scrape {
	sc := &scrape{
		Server:      s,
		uptime:      time.Since(s.start).Seconds(),
		registered:  s.models.Names(),
		defaultName: s.models.DefaultName(),
	}
	var views []StreamView
	views, sc.byModel = s.snapshot()
	for _, name := range sc.registered {
		sc.byModel[name] = sc.byModel[name] // a row even before the model serves
	}
	sc.modelRows = slices.Sorted(maps.Keys(sc.byModel))
	for _, v := range views {
		if v.Stalled {
			sc.stalled++
		}
	}
	if store := s.opts.Anomalies; store != nil {
		sc.store, sc.syncLat = store.Stats(), store.SyncLatency()
	}
	if ap := s.opts.Alerts; ap != nil {
		sc.alerts = ap.Books()
	}
	pipes := s.pipelines()
	sc.pipeNames = slices.Sorted(maps.Keys(pipes))
	for _, name := range sc.pipeNames {
		sc.pipes = append(sc.pipes, pipes[name].Snapshot())
	}
	sc.rt = obs.ReadRuntime()
	return sc
}

// series is one labelled sample of a family: its label values, in the
// order of the family's label keys, and its value (h for a histogram).
type series struct {
	vals []string
	v    float64
	h    obs.Snapshot
}

// needs is the set of optional subsystems a family reports on; the family
// is left out of the scrape while the daemon runs without one of them.
type needs uint8

const (
	needsStore needs = 1 << iota
	needsAlerts
	always needs = 0
)

// family is one row of the /metrics table: name, type, HELP text, label
// keys, the subsystem it needs, and the source of its samples.
type family struct {
	name, typ, help string
	labels          []string
	needs           needs
	source          func(sc *scrape) []series
}

// one is the source of an unlabelled family.
func one(v func(sc *scrape) float64) func(*scrape) []series {
	return func(sc *scrape) []series { return []series{{v: v(sc)}} }
}

// perModel is the source of a family over the per-model books.
func perModel(v func(b books) int64) func(*scrape) []series {
	return func(sc *scrape) []series {
		out := make([]series, len(sc.modelRows))
		for i, name := range sc.modelRows {
			out[i] = series{vals: []string{name}, v: float64(v(sc.byModel[name]))}
		}
		return out
	}
}

// perAlertModel is the source of a family over the alert books per model.
func perAlertModel(v func(mb alert.ModelBooks) int64) func(*scrape) []series {
	return func(sc *scrape) []series {
		out := make([]series, len(sc.alerts.Models))
		for i, mb := range sc.alerts.Models {
			out[i] = series{vals: []string{mb.Model}, v: float64(v(mb))}
		}
		return out
	}
}

// perSink is the source of a family over the alert books per sink.
func perSink(v func(sb alert.SinkBooks) int64) func(*scrape) []series {
	return func(sc *scrape) []series {
		out := make([]series, len(sc.alerts.Sinks))
		for i, sb := range sc.alerts.Sinks {
			out[i] = series{vals: []string{sb.Name}, v: float64(v(sb))}
		}
		return out
	}
}

// perStage is the source of a stage histogram family, one series per model.
func perStage(h func(p obs.PipelineSnapshot) obs.Snapshot) func(*scrape) []series {
	return func(sc *scrape) []series {
		out := make([]series, len(sc.pipes))
		for i, p := range sc.pipes {
			out[i] = series{vals: []string{sc.pipeNames[i]}, h: h(p)}
		}
		return out
	}
}

var modelLabel = []string{"model"}

// families is the /metrics table, in scrape order. Every label value comes
// from the model registry, a fixed enum, the configured sinks or the
// bucket bounds: no client can add a series by naming a stream.
var families = []family{
	{"enduratrace_uptime_seconds", "gauge", "Seconds since the serving daemon started.", nil, always,
		one(func(sc *scrape) float64 { return sc.uptime })},
	{"enduratrace_model_reloads_total", "counter", "Successful model registry hot reloads.", nil, always,
		one(func(sc *scrape) float64 { return float64(sc.models.Generation()) })},
	{"enduratrace_streams_rejected_total", "counter", "Streams refused at registration, by reason.", []string{"reason"}, always,
		func(sc *scrape) []series {
			return []series{
				{vals: []string{"header"}, v: float64(sc.rejHeader.Load())},
				{vals: []string{"unknown_model"}, v: float64(sc.rejUnknown.Load())},
				{vals: []string{"register"}, v: float64(sc.rejRegister.Load())},
				{vals: []string{"sink"}, v: float64(sc.rejSink.Load())},
			}
		}},

	{"enduratrace_anomaly_incidents_total", "counter", "Gate trips persisted to the anomaly store since startup.", nil, needsStore,
		one(func(sc *scrape) float64 { return float64(sc.anomIncidents.Load()) })},
	{"enduratrace_anomaly_store_errors_total", "counter", "Anomaly store appends that failed (streams continue).", nil, needsStore,
		one(func(sc *scrape) float64 { return float64(sc.anomStoreErrs.Load()) })},
	{"enduratrace_anomaly_incidents_in_flight", "gauge", "Gate trips written to the anomaly store and not yet settled.", nil, needsStore,
		one(func(sc *scrape) float64 { return float64(sc.anomInFlight.Load()) })},
	{"enduratrace_anomaly_store_segments", "gauge", "Segment files in the anomaly store (sealed + active).", nil, needsStore,
		one(func(sc *scrape) float64 { return float64(sc.store.Segments) })},
	{"enduratrace_anomaly_store_bytes", "gauge", "Total size of the anomaly store's segment files.", nil, needsStore,
		one(func(sc *scrape) float64 { return float64(sc.store.Bytes) })},
	// The group commit, scraped: synced_records / syncs is the batching
	// factor — near 1 the store is idle or a single stream trips, near the
	// number of tripping streams it is flushing as fast as it can.
	{"enduratrace_anomaly_store_syncs_total", "counter", "Segment fsyncs issued by the anomaly store.", nil, needsStore,
		one(func(sc *scrape) float64 { return float64(sc.store.Syncs) })},
	{"enduratrace_anomaly_store_synced_records_total", "counter", "Records those fsyncs made durable.", nil, needsStore,
		one(func(sc *scrape) float64 { return float64(sc.store.SyncedRecords) })},
	{"enduratrace_anomaly_store_sync_errors_total", "counter", "Segment fsyncs that failed (their records are reported lost, the segment is retired).", nil, needsStore,
		one(func(sc *scrape) float64 { return float64(sc.store.SyncErrors) })},
	{"enduratrace_anomaly_store_sync_seconds", "histogram", "Duration of each anomaly-store segment fsync.", nil, needsStore,
		func(sc *scrape) []series { return []series{{h: sc.syncLat}} }},

	// Alerting ledger: every state-machine transition lands in exactly one
	// pre-queue bucket (rate-limited / queue-dropped / enqueued), every
	// processed notification in one per-sink bucket — the same books
	// Books.Balanced verifies, scraped.
	{"enduratrace_alerts_fired_total", "counter", "Alert incidents fired (pending crossed min-trips), per model.", modelLabel, needsAlerts,
		perAlertModel(func(mb alert.ModelBooks) int64 { return mb.Fired })},
	{"enduratrace_alerts_resolved_total", "counter", "Alert incidents resolved (clear held past clear-after), per model.", modelLabel, needsAlerts,
		perAlertModel(func(mb alert.ModelBooks) int64 { return mb.Resolved })},
	{"enduratrace_alerts_delivered_total", "counter", "Alert notifications delivered, per sink.", []string{"sink"}, needsAlerts,
		perSink(func(sb alert.SinkBooks) int64 { return sb.Delivered })},
	{"enduratrace_alerts_delivery_errors_total", "counter", "Alert deliveries that failed after the sink's own retries.", []string{"sink"}, needsAlerts,
		perSink(func(sb alert.SinkBooks) int64 { return sb.Errors })},
	{"enduratrace_alerts_rate_limited_global_total", "counter", "Alert notifications refused by the global token bucket, before the queue.", nil, needsAlerts,
		one(func(sc *scrape) float64 { return float64(sc.alerts.RateLimitedGlobal) })},
	{"enduratrace_alerts_queue_dropped_total", "counter", "Alert notifications dropped by a full dispatch queue (scoring never waits).", nil, needsAlerts,
		one(func(sc *scrape) float64 { return float64(sc.alerts.QueueDropped) })},
	{"enduratrace_alerts_enqueued_total", "counter", "Alert notifications handed to the dispatcher.", nil, needsAlerts,
		one(func(sc *scrape) float64 { return float64(sc.alerts.Enqueued) })},
	{"enduratrace_alerts_queue_depth", "gauge", "Alert notifications queued or in delivery.", nil, needsAlerts,
		one(func(sc *scrape) float64 { return float64(sc.opts.Alerts.QueueDepth()) })},
	{"enduratrace_alerts_firing", "gauge", "Streams with an open (firing) alert incident.", nil, needsAlerts,
		one(func(sc *scrape) float64 { return float64(sc.opts.Alerts.FiringStreams()) })},
	{"enduratrace_alert_transitions_persisted_total", "counter", "Alert transitions persisted to the anomaly store.", nil, needsStore | needsAlerts,
		one(func(sc *scrape) float64 { return float64(sc.alertPersisted.Load()) })},
	{"enduratrace_alert_store_errors_total", "counter", "Alert-transition store appends that failed (alerting continues).", nil, needsStore | needsAlerts,
		one(func(sc *scrape) float64 { return float64(sc.alertPersistErrs.Load()) })},

	{"enduratrace_model_points", "gauge", "Reference points in each registered model (1-labelled default).", []string{"model", "default"}, always,
		func(sc *scrape) []series {
			out := make([]series, 0, len(sc.registered))
			for _, name := range sc.registered {
				nm, _, err := sc.models.Resolve(name)
				if err != nil {
					continue // dropped by a concurrent reload
				}
				isDefault := "0"
				if name == sc.defaultName {
					isDefault = "1"
				}
				out = append(out, series{vals: []string{name, isDefault}, v: float64(nm.Learned.Model.Len())})
			}
			return out
		}},

	{"enduratrace_windows_total", "counter", "Windows scored, cumulative over closed and live streams.", modelLabel, always,
		perModel(func(b books) int64 { return b.Windows })},
	{"enduratrace_gate_trips_total", "counter", "Gate trips (LOF computations), cumulative.", modelLabel, always,
		perModel(func(b books) int64 { return b.GateTrips })},
	{"enduratrace_lof_calls_total", "counter", "LOF scorings performed, cumulative.", modelLabel, always,
		perModel(func(b books) int64 { return b.LOFCalls })},
	{"enduratrace_anomalies_total", "counter", "Windows flagged anomalous (outliers), cumulative.", modelLabel, always,
		perModel(func(b books) int64 { return b.Anomalies })},
	{"enduratrace_events_dropped_total", "counter", "Events shed by drop-oldest backpressure, cumulative.", modelLabel, always,
		perModel(func(b books) int64 { return b.dropped })},
	{"enduratrace_ingest_bytes_total", "counter", "Encoded bytes of every event received, cumulative.", modelLabel, always,
		perModel(func(b books) int64 { return b.fullBytes })},
	{"enduratrace_recorded_windows_total", "counter", "Windows recorded to sinks, cumulative.", modelLabel, always,
		perModel(func(b books) int64 { return b.RecWindows })},
	{"enduratrace_recorded_bytes_total", "counter", "Bytes recorded to sinks, cumulative.", modelLabel, always,
		perModel(func(b books) int64 { return b.RecBytes })},
	{"enduratrace_streams_live", "gauge", "Streams currently being served.", modelLabel, always,
		perModel(func(b books) int64 { return int64(b.live) })},
	{"enduratrace_streams_closed_total", "counter", "Streams served to completion.", modelLabel, always,
		perModel(func(b books) int64 { return int64(b.closed) })},

	// Stall watchdog: live streams holding queued events whose scorer has
	// made no progress for DefaultStallAfter.
	{"enduratrace_streams_stalled", "gauge", "Live streams with queued events and no scoring progress for the stall threshold.", nil, always,
		one(func(sc *scrape) float64 { return float64(sc.stalled) })},

	// Pipeline latency histograms, per model: where each event's time goes
	// on its way from the socket to a decision. decode includes socket
	// wait (the frame read blocks on the network); e2e spans arrival
	// (decode complete) to the decision on the event's window.
	{"enduratrace_pipeline_decode_seconds", "histogram", "Per-event frame read + decode time, including socket wait.", modelLabel, always,
		perStage(func(p obs.PipelineSnapshot) obs.Snapshot { return p.Decode })},
	{"enduratrace_pipeline_queue_wait_seconds", "histogram", "Per-event time in the bounded queue between ingest and scoring.", modelLabel, always,
		perStage(func(p obs.PipelineSnapshot) obs.Snapshot { return p.QueueWait })},
	{"enduratrace_pipeline_score_seconds", "histogram", "Per-window ProcessWindow (featurize + gate + LOF) time.", modelLabel, always,
		perStage(func(p obs.PipelineSnapshot) obs.Snapshot { return p.Score })},
	{"enduratrace_pipeline_e2e_seconds", "histogram", "Per-event end-to-end latency from arrival to its window's decision.", modelLabel, always,
		perStage(func(p obs.PipelineSnapshot) obs.Snapshot { return p.E2E })},

	// Go runtime health, for correlating latency shifts with GC or
	// goroutine growth.
	{"enduratrace_goroutines", "gauge", "Live goroutines in the daemon process.", nil, always,
		one(func(sc *scrape) float64 { return float64(sc.rt.Goroutines) })},
	{"enduratrace_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", nil, always,
		one(func(sc *scrape) float64 { return float64(sc.rt.HeapAllocBytes) })},
	{"enduratrace_heap_sys_bytes", "gauge", "Bytes of heap obtained from the OS (runtime.MemStats.HeapSys).", nil, always,
		one(func(sc *scrape) float64 { return float64(sc.rt.HeapSysBytes) })},
	{"enduratrace_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.", nil, always,
		one(func(sc *scrape) float64 { return float64(sc.rt.GCPauseTotalNs) / 1e9 })},
	{"enduratrace_gc_cycles_total", "counter", "Completed GC cycles.", nil, always,
		one(func(sc *scrape) float64 { return float64(sc.rt.GCCycles) })},
}

// WriteMetrics writes the server's Prometheus scrape: one read of its
// state, then every row of families in order, skipping the rows whose
// subsystems (anomaly store, alert pipeline) are not all on.
func (s *Server) WriteMetrics(w io.Writer) error {
	sc := s.readScrape()
	var have needs
	if s.opts.Anomalies != nil {
		have |= needsStore
	}
	if s.opts.Alerts != nil {
		have |= needsAlerts
	}
	var b strings.Builder
	for _, f := range families {
		if f.needs&^have != 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, sr := range f.source(sc) {
			if f.typ == "histogram" {
				writeHistogram(&b, f.name, f.labels, sr.vals, sr.h)
			} else {
				writeSample(&b, f.name, f.labels, sr.vals, sr.v)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample writes one sample line labelled keys[i]=vals[i].
func writeSample(b *strings.Builder, name string, keys, vals []string, value float64) {
	b.WriteString(name)
	if len(keys) > 0 {
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(vals[i]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
	b.WriteByte('\n')
}

// writeHistogram writes one Prometheus histogram: cumulative _bucket
// samples over the obs bucket bounds (ending at le="+Inf"), then _sum and
// _count. It reads one snapshot, so within a scrape the +Inf bucket always
// equals _count whatever concurrent Observes do.
func writeHistogram(b *strings.Builder, name string, keys, vals []string, snap obs.Snapshot) {
	bounds := obs.Bounds()
	keysLE := append(slices.Clip(keys), "le")
	var cum uint64
	for i, bound := range bounds {
		cum += snap.Counts[i]
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		writeSample(b, name+"_bucket", keysLE, append(slices.Clip(vals), le), float64(cum))
	}
	cum += snap.Counts[len(bounds)] // overflow bin
	writeSample(b, name+"_bucket", keysLE, append(slices.Clip(vals), "+Inf"), float64(cum))
	writeSample(b, name+"_sum", keys, vals, snap.SumSeconds())
	writeSample(b, name+"_count", keys, vals, float64(cum))
}

// escapeLabelValue applies the exposition-format label escapes (backslash,
// double quote, newline).
func escapeLabelValue(s string) string { return labelEscaper.Replace(s) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
