package serve

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/obs"
)

// Prometheus text exposition (version 0.0.4), hand-rolled: the format is
// a dozen lines of escaping rules, which is cheaper than a client library
// dependency and keeps the daemon's admin surface self-contained. The
// /stats JSON endpoint is unchanged; /metrics is the scrape-friendly view
// with per-model and per-stream labels.

// metricsWriter accumulates one scrape. Families are emitted in the order
// first announced; samples within a family in the order added (callers
// sort their label sets for deterministic scrapes).
type metricsWriter struct {
	w   *bufio.Writer
	err error
}

func newMetricsWriter(w io.Writer) *metricsWriter {
	return &metricsWriter{w: bufio.NewWriter(w)}
}

// family emits the HELP/TYPE header for one metric family.
func (m *metricsWriter) family(name, typ, help string) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line; labels are (key, value) pairs.
func (m *metricsWriter) sample(name string, value float64, labels ...string) {
	if m.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(labels[i])
			sb.WriteString(`="`)
			sb.WriteString(escapeLabelValue(labels[i+1]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
	sb.WriteByte('\n')
	_, m.err = m.w.WriteString(sb.String())
}

// histogram emits one Prometheus histogram: cumulative _bucket samples
// over the obs bucket bounds (ending at le="+Inf"), then _sum and _count.
// The snapshot is taken once, so within one scrape the +Inf bucket always
// equals _count whatever concurrent Observes do.
func (m *metricsWriter) histogram(name string, snap obs.Snapshot, labels ...string) {
	bounds := obs.Bounds()
	var cum uint64
	for i, b := range bounds {
		cum += snap.Counts[i]
		le := strconv.FormatFloat(b, 'g', -1, 64)
		m.sample(name+"_bucket", float64(cum), append(append([]string{}, labels...), "le", le)...)
	}
	cum += snap.Counts[len(bounds)] // overflow bin
	m.sample(name+"_bucket", float64(cum), append(append([]string{}, labels...), "le", "+Inf")...)
	m.sample(name+"_sum", snap.SumSeconds(), labels...)
	m.sample(name+"_count", float64(cum), labels...)
}

func (m *metricsWriter) flush() error {
	if m.err != nil {
		return m.err
	}
	return m.w.Flush()
}

// escapeLabelValue applies the exposition-format label escapes (backslash,
// double quote, newline).
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// WriteMetrics writes the server's Prometheus scrape: serving state plus
// the monitoring counters — events, windows, gate trips, anomalies,
// drops, queue depth — cumulatively per model and individually per live
// stream, every sample labelled with the model that scored it.
func (s *Server) WriteMetrics(w io.Writer) error {
	m := newMetricsWriter(w)

	m.family("enduratrace_uptime_seconds", "gauge", "Seconds since the serving daemon started.")
	m.sample("enduratrace_uptime_seconds", time.Since(s.start).Seconds())

	m.family("enduratrace_model_reloads_total", "counter", "Successful model registry hot reloads.")
	m.sample("enduratrace_model_reloads_total", float64(s.models.Generation()))

	m.family("enduratrace_streams_rejected_total", "counter", "Streams refused at registration, by reason.")
	m.sample("enduratrace_streams_rejected_total", float64(s.rejHeader.Load()), "reason", "header")
	m.sample("enduratrace_streams_rejected_total", float64(s.rejUnknown.Load()), "reason", "unknown_model")
	m.sample("enduratrace_streams_rejected_total", float64(s.rejRegister.Load()), "reason", "register")
	m.sample("enduratrace_streams_rejected_total", float64(s.rejSink.Load()), "reason", "sink")

	if store := s.opts.Anomalies; store != nil {
		st := store.Stats()
		m.family("enduratrace_anomaly_incidents_total", "counter", "Gate trips persisted to the anomaly store since startup.")
		m.sample("enduratrace_anomaly_incidents_total", float64(s.anomIncidents.Load()))
		m.family("enduratrace_anomaly_store_errors_total", "counter", "Anomaly store appends that failed (streams continue).")
		m.sample("enduratrace_anomaly_store_errors_total", float64(s.anomStoreErrs.Load()))
		m.family("enduratrace_anomaly_incidents_in_flight", "gauge", "Gate trips written to the anomaly store and not yet settled.")
		m.sample("enduratrace_anomaly_incidents_in_flight", float64(s.anomInFlight.Load()))
		m.family("enduratrace_anomaly_store_segments", "gauge", "Segment files in the anomaly store (sealed + active).")
		m.sample("enduratrace_anomaly_store_segments", float64(st.Segments))
		m.family("enduratrace_anomaly_store_bytes", "gauge", "Total size of the anomaly store's segment files.")
		m.sample("enduratrace_anomaly_store_bytes", float64(st.Bytes))
		// The group commit, scraped: synced_records / syncs is the batching
		// factor — near 1 the store is idle or a single stream trips, near
		// the number of tripping streams it is flushing as fast as it can.
		m.family("enduratrace_anomaly_store_syncs_total", "counter", "Segment fsyncs issued by the anomaly store.")
		m.sample("enduratrace_anomaly_store_syncs_total", float64(st.Syncs))
		m.family("enduratrace_anomaly_store_synced_records_total", "counter", "Records those fsyncs made durable.")
		m.sample("enduratrace_anomaly_store_synced_records_total", float64(st.SyncedRecords))
		m.family("enduratrace_anomaly_store_sync_errors_total", "counter", "Segment fsyncs that failed (their records are reported lost, the segment is retired).")
		m.sample("enduratrace_anomaly_store_sync_errors_total", float64(st.SyncErrors))
		m.family("enduratrace_anomaly_store_sync_seconds", "histogram", "Duration of each anomaly-store segment fsync.")
		m.histogram("enduratrace_anomaly_store_sync_seconds", store.SyncLatency())
	}

	// Alerting ledger: every state-machine transition lands in exactly one
	// pre-queue bucket (rate-limited / queue-dropped / enqueued), every
	// processed notification in one per-sink bucket — the same books
	// Books.Balanced verifies, scraped.
	if ap := s.opts.Alerts; ap != nil {
		b := ap.Books()
		perAlertModel := []struct {
			name, help string
			value      func(mb alert.ModelBooks) int64
		}{
			{"enduratrace_alerts_fired_total", "Alert incidents fired (pending crossed min-trips), per model.",
				func(mb alert.ModelBooks) int64 { return mb.Fired }},
			{"enduratrace_alerts_resolved_total", "Alert incidents resolved (clear held past clear-after), per model.",
				func(mb alert.ModelBooks) int64 { return mb.Resolved }},
		}
		for _, fam := range perAlertModel {
			m.family(fam.name, "counter", fam.help)
			for _, mb := range b.Models {
				m.sample(fam.name, float64(fam.value(mb)), "model", mb.Model)
			}
		}
		perSink := []struct {
			name, help string
			value      func(sb alert.SinkBooks) int64
		}{
			{"enduratrace_alerts_delivered_total", "Alert notifications delivered, per sink.",
				func(sb alert.SinkBooks) int64 { return sb.Delivered }},
			{"enduratrace_alerts_delivery_errors_total", "Alert deliveries that failed after the sink's own retries.",
				func(sb alert.SinkBooks) int64 { return sb.Errors }},
		}
		for _, fam := range perSink {
			m.family(fam.name, "counter", fam.help)
			for _, sb := range b.Sinks {
				m.sample(fam.name, float64(fam.value(sb)), "sink", sb.Name)
			}
		}
		m.family("enduratrace_alerts_rate_limited_global_total", "counter",
			"Alert notifications refused by the global token bucket, before the queue.")
		m.sample("enduratrace_alerts_rate_limited_global_total", float64(b.RateLimitedGlobal))
		m.family("enduratrace_alerts_queue_dropped_total", "counter",
			"Alert notifications dropped by a full dispatch queue (scoring never waits).")
		m.sample("enduratrace_alerts_queue_dropped_total", float64(b.QueueDropped))
		m.family("enduratrace_alerts_enqueued_total", "counter",
			"Alert notifications handed to the dispatcher.")
		m.sample("enduratrace_alerts_enqueued_total", float64(b.Enqueued))
		m.family("enduratrace_alerts_queue_depth", "gauge",
			"Alert notifications queued or in delivery.")
		m.sample("enduratrace_alerts_queue_depth", float64(ap.QueueDepth()))
		m.family("enduratrace_alerts_firing", "gauge",
			"Streams with an open (firing) alert incident.")
		m.sample("enduratrace_alerts_firing", float64(ap.FiringStreams()))
		m.family("enduratrace_alert_transitions_persisted_total", "counter",
			"Alert transitions persisted to the anomaly store.")
		m.sample("enduratrace_alert_transitions_persisted_total", float64(s.alertPersisted.Load()))
		m.family("enduratrace_alert_store_errors_total", "counter",
			"Alert-transition store appends that failed (alerting continues).")
		m.sample("enduratrace_alert_store_errors_total", float64(s.alertPersistErrs.Load()))
	}

	// Registry contents: point counts, flagging the default model.
	names := s.models.Names()
	defaultName := s.models.DefaultName()
	m.family("enduratrace_model_points", "gauge", "Reference points in each registered model (1-labelled default).")
	for _, name := range names {
		nm, err := s.models.Resolve(name)
		if err != nil {
			continue // dropped by a concurrent reload
		}
		isDefault := "0"
		if name == defaultName {
			isDefault = "1"
		}
		m.sample("enduratrace_model_points", float64(nm.Learned.Model.Len()),
			"model", name, "default", isDefault)
	}

	// One read of the stream table feeds every per-model, per-stream and
	// stall family below. Registered models have rows before they serve
	// anything; models dropped by a reload keep their historic rows.
	views, byModel := s.snapshot()
	for _, name := range names {
		byModel[name] = byModel[name] // a row even before the model serves
	}
	modelNames := make([]string, 0, len(byModel))
	for name := range byModel {
		modelNames = append(modelNames, name)
	}
	sort.Strings(modelNames)

	perModel := []struct {
		name, typ, help string
		value           func(b books) int64
	}{
		{"enduratrace_windows_total", "counter", "Windows scored, cumulative over closed and live streams.",
			func(b books) int64 { return b.Windows }},
		{"enduratrace_gate_trips_total", "counter", "Gate trips (LOF computations), cumulative.",
			func(b books) int64 { return b.GateTrips }},
		{"enduratrace_lof_calls_total", "counter", "LOF scorings performed, cumulative.",
			func(b books) int64 { return b.LOFCalls }},
		{"enduratrace_anomalies_total", "counter", "Windows flagged anomalous (outliers), cumulative.",
			func(b books) int64 { return b.Anomalies }},
		{"enduratrace_events_dropped_total", "counter", "Events shed by drop-oldest backpressure, cumulative.",
			func(b books) int64 { return b.dropped }},
		{"enduratrace_ingest_bytes_total", "counter", "Encoded bytes of every event received, cumulative.",
			func(b books) int64 { return b.fullBytes }},
		{"enduratrace_recorded_windows_total", "counter", "Windows recorded to sinks, cumulative.",
			func(b books) int64 { return b.recWindows }},
		{"enduratrace_recorded_bytes_total", "counter", "Bytes recorded to sinks, cumulative.",
			func(b books) int64 { return b.recBytes }},
		{"enduratrace_streams_live", "gauge", "Streams currently being served.",
			func(b books) int64 { return int64(b.live) }},
		{"enduratrace_streams_closed_total", "counter", "Streams served to completion.",
			func(b books) int64 { return int64(b.closed) }},
	}
	for _, fam := range perModel {
		m.family(fam.name, fam.typ, fam.help)
		for _, name := range modelNames {
			m.sample(fam.name, float64(fam.value(byModel[name])), "model", name)
		}
	}

	perStream := []struct {
		name, typ, help string
		value           func(v StreamView) int64
	}{
		{"enduratrace_stream_windows_total", "counter", "Windows scored on this live stream.",
			func(v StreamView) int64 { return v.Counters.Windows }},
		{"enduratrace_stream_gate_trips_total", "counter", "Gate trips on this live stream.",
			func(v StreamView) int64 { return v.Counters.GateTrips }},
		{"enduratrace_stream_anomalies_total", "counter", "Anomalous windows on this live stream.",
			func(v StreamView) int64 { return v.Counters.Anomalies }},
		{"enduratrace_stream_events_ingested_total", "counter", "Events decoded off this stream's socket.",
			func(v StreamView) int64 { return v.EventsIngested }},
		{"enduratrace_stream_events_scored_total", "counter", "Events consumed by this stream's monitor.",
			func(v StreamView) int64 { return v.EventsScored }},
		{"enduratrace_stream_events_dropped_total", "counter", "Events shed from this stream's queue.",
			func(v StreamView) int64 { return v.DroppedEvents }},
		{"enduratrace_stream_queue_depth", "gauge", "Events queued between ingest and scoring.",
			func(v StreamView) int64 { return int64(v.QueueDepth) }},
	}
	for _, fam := range perStream {
		m.family(fam.name, fam.typ, fam.help)
		for _, v := range views {
			m.sample(fam.name, float64(fam.value(v)), "stream", v.ID, "model", v.Model)
		}
	}

	// Stall watchdog: live streams holding queued events whose scorer has
	// made no progress for Options.StallAfter.
	stalled := 0
	for _, v := range views {
		if v.Stalled {
			stalled++
		}
	}
	m.family("enduratrace_streams_stalled", "gauge",
		"Live streams with queued events and no scoring progress for the stall threshold.")
	m.sample("enduratrace_streams_stalled", float64(stalled))

	// Pipeline latency histograms, per model: where each event's time goes
	// on its way from the socket to a decision. decode includes socket
	// wait (the frame read blocks on the network); e2e spans arrival
	// (decode complete) to the decision on the event's window.
	pipes := s.pipelines()
	pipeNames := make([]string, 0, len(pipes))
	for name := range pipes {
		pipeNames = append(pipeNames, name)
	}
	sort.Strings(pipeNames)
	stageFams := []struct {
		name, help string
		snap       func(p obs.PipelineSnapshot) obs.Snapshot
	}{
		{"enduratrace_pipeline_decode_seconds", "Per-event frame read + decode time, including socket wait.",
			func(p obs.PipelineSnapshot) obs.Snapshot { return p.Decode }},
		{"enduratrace_pipeline_queue_wait_seconds", "Per-event time in the bounded queue between ingest and scoring.",
			func(p obs.PipelineSnapshot) obs.Snapshot { return p.QueueWait }},
		{"enduratrace_pipeline_score_seconds", "Per-window ProcessWindow (featurize + gate + LOF) time.",
			func(p obs.PipelineSnapshot) obs.Snapshot { return p.Score }},
		{"enduratrace_pipeline_e2e_seconds", "Per-event end-to-end latency from arrival to its window's decision.",
			func(p obs.PipelineSnapshot) obs.Snapshot { return p.E2E }},
	}
	snaps := make(map[string]obs.PipelineSnapshot, len(pipes))
	for _, name := range pipeNames {
		snaps[name] = pipes[name].Snapshot()
	}
	for _, fam := range stageFams {
		m.family(fam.name, "histogram", fam.help)
		for _, name := range pipeNames {
			m.histogram(fam.name, fam.snap(snaps[name]), "model", name)
		}
	}

	// Go runtime health, for correlating latency shifts with GC or
	// goroutine growth.
	rt := obs.ReadRuntime()
	m.family("enduratrace_goroutines", "gauge", "Live goroutines in the daemon process.")
	m.sample("enduratrace_goroutines", float64(rt.Goroutines))
	m.family("enduratrace_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).")
	m.sample("enduratrace_heap_alloc_bytes", float64(rt.HeapAllocBytes))
	m.family("enduratrace_heap_sys_bytes", "gauge", "Bytes of heap obtained from the OS (runtime.MemStats.HeapSys).")
	m.sample("enduratrace_heap_sys_bytes", float64(rt.HeapSysBytes))
	m.family("enduratrace_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	m.sample("enduratrace_gc_pause_seconds_total", float64(rt.GCPauseTotalNs)/1e9)
	m.family("enduratrace_gc_cycles_total", "counter", "Completed GC cycles.")
	m.sample("enduratrace_gc_cycles_total", float64(rt.GCCycles))

	return m.flush()
}
