package main

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"enduratrace/internal/eval"
	"enduratrace/internal/serve"
	"enduratrace/internal/traceio"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def names a metric and its unit. The two tables below are the
// benchmark's whole vocabulary; BENCHMARK.json repeats them with a
// direction and, end to end, a bound.
type def struct{ name, unit string }

var endToEndDefs = []def{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"reduction_factor", "ratio"},
	{"precision", "ratio"},
	{"recall", "ratio"},
	{"detected_share", "ratio"},
	{"heap_live_mb", "MiB"},
}

var perLayerDefs = []def{
	{"traceio.decode_ns_per_event", "ns"},
	{"traceio.bytes_per_event", "bytes"},
	{"traceio.allocs_per_kevent", "count"},
	{"window.add_ns_per_event", "ns"},
	{"pmf.features_ns_per_window", "ns"},
	{"distance.gate_ns_per_window", "ns"},
	{"distance.rows_ns_per_row", "ns"},
	{"lof.score_us", "us"},
	{"lof.knn_select_share", "ratio"},
	{"lof.calls", "count"},
	{"lof.ref_points", "count"},
	{"core.process_window_quiet_ns", "ns"},
	{"core.process_window_trip_us", "us"},
	{"core.gate_trip_share", "ratio"},
	{"core.lof_anomaly_share", "ratio"},
	{"core.learn_s", "s"},
	{"core.model_load_s", "s"},
	{"recorder.record_us", "us"},
	{"recorder.windows_recorded", "count"},
	{"recorder.bytes_recorded", "bytes"},
	{"anomalystore.append_us_p50", "us"},
	{"anomalystore.append_us_p95", "us"},
	{"anomalystore.appends", "count"},
	{"anomalystore.bytes", "bytes"},
	{"anomalystore.errors", "count"},
	{"alert.observe_ns", "ns"},
	{"alert.fired", "count"},
	{"alert.delivered", "count"},
	{"alert.dropped", "count"},
	{"serve.queue_wait_mean_us", "us"},
	{"serve.score_busy_share", "ratio"},
	{"serve.queue_depth_p50", "events"},
	{"serve.queue_depth_max", "events"},
	{"serve.backlog_events_max", "events"},
	{"serve.client_blocked_share", "ratio"},
	{"serve.dropped_events", "count"},
	{"serve.allocs_per_kevent", "count"},
	{"serve.gc_pause_ms", "ms"},
	{"serve.record_lag_p50_ms", "ms"},
	{"serve.record_lag_p90_ms", "ms"},
	{"serve.record_lag_top_ms", "ms"},
	{"serve.record_lag_top_pct", "%"},
	{"serve.record_lag_samples", "count"},
	{"serve.record_lag_over_500ms", "count"},
	{"replay.events_per_s", "events/s"},
	{"budget.decode_share", "ratio"},
	{"budget.window_share", "ratio"},
	{"budget.pmf_share", "ratio"},
	{"budget.gate_share", "ratio"},
	{"budget.lof_share", "ratio"},
	{"budget.recorder_share", "ratio"},
	{"budget.store_share", "ratio"},
	{"budget.alert_share", "ratio"},
	{"budget.explained", "ratio"},
	{"quality.delta_s_ms", "ms"},
	{"quality.failed_share", "ratio"},
	{"gen.late_p95_ms", "ms"},
	{"gen.encode_s", "s"},
	{"trace.overhead_share", "ratio"},
}

// budgetLayers maps each share of the stage budget to the replay span it
// is taken from and to the unit of work that span is one of: the budget
// prices the run's count of that unit at the replay's cost per unit.
var budgetLayers = []struct {
	share, span string
	unit        workUnit
}{
	{"budget.decode_share", "traceio.decode", perEvent},
	{"budget.window_share", "window.add", perEvent},
	{"budget.pmf_share", "pmf.features", perWindow},
	{"budget.gate_share", "distance.gate", perWindow},
	{"budget.lof_share", "lof.score", perTrip},
	{"budget.recorder_share", "recorder.record", perRecord},
	{"budget.store_share", "anomalystore.append", perTrip},
	{"budget.alert_share", "alert.observe", perWindow},
}

type workUnit int

const (
	perEvent workUnit = iota
	perWindow
	perTrip
	perRecord
)

// eval's books for its default experiment, which paper_default's stream 0
// sends whole when the run is asked for one full lap with seed 1.
const (
	evalSeed      = 1
	evalWindows   = 15000
	evalGateTrips = 9376
	evalAnomalies = 2578
)

// quietTripShare is the most of its windows the quiet workload may send
// to LOF on its own account, the glitches aside.
const quietTripShare = 0.001

// verdict is the outcome of checking one pass against the client-side
// mirror and the reference computation. A problem fails the run; a note
// is printed beside the metrics and does not.
type verdict struct {
	attempted, failed int64
	problems, notes   []string
}

func (v *verdict) problemf(format string, a ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, a...))
}

func (v *verdict) notef(format string, a ...any) {
	v.notes = append(v.notes, fmt.Sprintf(format, a...))
}

// lagsMs returns, for every window the sinks were handed, how long after
// the frame that closed it was due the sink received it.
func lagsMs(p *passResult) []float64 {
	var lags []float64
	for i, s := range p.sinks {
		if s == nil {
			continue
		}
		for _, r := range s.recs {
			lags = append(lags, float64(r.at-p.gens[i].dueOf(r.index))/1e6)
		}
	}
	return lags
}

// lagsOver counts the windows recorded later than the open-loop
// workload's latency limit.
func lagsOver(p *passResult) int {
	over := 0
	for _, l := range lagsMs(p) {
		if l > lagLimitMs {
			over++
		}
	}
	return over
}

// checkPass balances one pass's books: every window the mirror expects
// was decided on a stream that closed clean with nothing dropped, what
// the sinks saw is what the daemon reports, and the windows stream 0's
// sink was handed inside the replayed prefix are the ones the reference
// flagged. fullLap says the run sent exactly one lap.
func checkPass(in *inputs, p *passResult, ref *replayResult, seed int64, fullLap bool) verdict {
	var v verdict
	if len(p.results) != connections {
		v.problemf("%d streams reported closed, want %d", len(p.results), connections)
	}
	var expected, trips int64
	for i, g := range p.gens {
		_, closed := g.st.sent(g.pos)
		want := closed + 1 // the end of the stream closes the last window
		expected += int64(want)
		v.attempted += int64(want)
		var res *serve.StreamResult
		for j := range p.results {
			if p.results[j].ID == g.st.name {
				res = &p.results[j]
			}
		}
		if res == nil {
			v.failed += int64(want)
			v.problemf("stream %s: no final result", g.st.name)
			continue
		}
		trips += int64(res.GateTrips)
		if !res.Clean || res.Err != "" || res.DroppedEvents != 0 {
			v.failed += int64(want)
			v.problemf("stream %s: clean=%v err=%q dropped=%d", res.ID, res.Clean, res.Err, res.DroppedEvents)
			continue
		}
		if res.Windows != want {
			v.failed += int64(max(want-res.Windows, res.Windows-want))
			v.problemf("stream %s: %d windows decided, %d expected", res.ID, res.Windows, want)
		}
		s := p.sinks[i]
		if s == nil || len(s.recs) != res.RecordedWindows || res.RecordedWindows != res.Anomalies {
			v.problemf("stream %s: sink handed %d windows, daemon reports %d recorded and %d anomalous",
				res.ID, sinkLen(s), res.RecordedWindows, res.Anomalies)
		}
		if fullLap && in.spec.name == "paper_default" && seed == evalSeed && i == 0 &&
			(res.Windows != evalWindows || res.GateTrips != evalGateTrips || res.Anomalies != evalAnomalies) {
			v.problemf("stream %s: %d windows, %d gate trips, %d anomalies; `enduratrace eval` has %d, %d, %d",
				res.ID, res.Windows, res.GateTrips, res.Anomalies, evalWindows, evalGateTrips, evalAnomalies)
		}
	}
	st := p.stats
	if st.Windows != expected || st.DroppedEvents != 0 || st.StreamsRejected != 0 {
		v.problemf("daemon totals: %d windows (want %d), %d events dropped, %d streams rejected",
			st.Windows, expected, st.DroppedEvents, st.StreamsRejected)
	}

	var got []int
	if s := p.sinks[0]; s != nil {
		for _, r := range s.recs {
			if r.index < in.replayN {
				got = append(got, r.index)
			}
		}
	}
	if !equalInts(got, ref.anomalous) {
		v.problemf("stream 0 prefix: sink was handed %d windows, the reference flags %d (first difference at %d)",
			len(got), len(ref.anomalous), firstDiff(got, ref.anomalous))
	}

	if in.spec.persist {
		if st.AnomalyIncidents != trips || st.AnomalyStoreErrors != 0 || st.AlertStoreErrors != 0 {
			v.problemf("anomaly store: %d incidents for %d gate trips, %d+%d append errors",
				st.AnomalyIncidents, trips, st.AnomalyStoreErrors, st.AlertStoreErrors)
		}
		if p.store.Appended != st.AnomalyIncidents+st.AlertTransitions {
			v.problemf("anomaly store: %d records appended, daemon reports %d incidents and %d transitions",
				p.store.Appended, st.AnomalyIncidents, st.AlertTransitions)
		}
		if err := p.alerts.Balanced(); err != nil {
			v.problemf("alert books: %v", err)
		}
	}
	// Each glitch trips the gate twice, on the burst (recorded) and on the
	// window after it, and each stream's first window always does.
	if natural := st.GateTrips - 2*st.Anomalies - connections; in.spec.quiet && float64(natural) > quietTripShare*float64(st.Windows) {
		v.problemf("quiet workload sent %d of %d windows to LOF beside its glitches, more than %g of them", natural, st.Windows, quietTripShare)
	}
	// How late the generator and the daemon ran is a measurement, not a
	// check: on a shared box a neighbour's load moves both, and the daemon's
	// output is no less correct for it.
	if in.spec.paced {
		if late := lateP95(p); late > lateLimitMs {
			v.notef("the generator ran %.3f ms late at p95, more than %.3f ms: the box was busy, read this run's lag with that in mind", late, lateLimitMs)
		}
		if over := lagsOver(p); over > 0 {
			v.notef("%d windows were recorded more than %d ms after they were due: the rate was not sustained throughout", over, lagLimitMs)
		}
	}
	if len(v.problems) > 0 && v.failed == 0 {
		v.failed = 1 // a broken book fails the run even when every window was decided
	}
	return v
}

func sinkLen(s *timedSink) int {
	if s == nil {
		return 0
	}
	return len(s.recs)
}

func equalInts(a, b []int) bool { return firstDiff(a, b) < 0 }

// firstDiff returns the first position at which a and b differ, -1 if
// they are equal.
func firstDiff(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// lateP95 is how late the open-loop generators handed frames to the
// socket, at the 95th percentile over both connections; 0 closed loop.
func lateP95(p *passResult) float64 {
	var late []float64
	for _, g := range p.gens {
		late = append(late, g.lateMs...)
	}
	return percentile(sorted(late), 95)
}

// quality is the paper's §III detection quality over the quality prefix
// of both streams, anomalous meaning handed to the bench's sink.
type quality struct {
	reduction, precision, recall, detectedShare, deltaSMs float64
}

func scoreQuality(in *inputs, p *passResult) quality {
	var full, recorded int64
	var tp, scored, truthWindows, detected, total int
	var deltaS float64
	for i, st := range in.streams {
		full += st.qualityFull
		rec := int64(traceio.HeaderSize())
		anomalous := make([]bool, in.qualityWindows)
		if s := p.sinks[i]; s != nil {
			for _, r := range s.recs {
				if r.index < in.qualityWindows {
					anomalous[r.index] = true
					rec = r.bytes
				}
			}
		}
		recorded += rec
		sc := eval.NewScorer(st.truth, in.spec.slack, evalWarmup)
		for w, a := range anomalous {
			start := time.Duration(w) * in.win
			sc.Observe(start, start+in.win, a)
		}
		var rep eval.Report
		sc.Finish(&rep)
		tp += int(rep.Precision*float64(rep.ScoredAnomalousWindows) + 0.5)
		scored += rep.ScoredAnomalousWindows
		truthWindows += rep.TruthWindows
		detected += rep.DetectedPerturbations
		total += rep.TotalPerturbations
		deltaS += rep.MeanDeltaSMs * float64(rep.DetectedPerturbations)
	}
	q := quality{reduction: float64(full) / float64(recorded)}
	if scored > 0 {
		q.precision = float64(tp) / float64(scored)
	}
	if truthWindows > 0 {
		q.recall = float64(tp) / float64(truthWindows)
	}
	if total > 0 {
		q.detectedShare = float64(detected) / float64(total)
	}
	if detected > 0 {
		q.deltaSMs = deltaS / float64(detected)
	}
	return q
}

// endToEnd is what an operator sees of one untraced pass.
func endToEnd(in *inputs, p *passResult) map[string]float64 {
	q := scoreQuality(in, p)
	return map[string]float64{
		"setup_s":          in.setupS,
		"events_per_s":     float64(p.events) / p.wallS,
		"reduction_factor": q.reduction,
		"precision":        q.precision,
		"recall":           q.recall,
		"detected_share":   q.detectedShare,
		"heap_live_mb":     p.heapLiveMB,
	}
}

// metricSum adds up every sample of one family in a Prometheus text
// exposition, whatever its labels.
func metricSum(text []byte, family string) float64 {
	sum := 0.0
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer is the traced run's numbers: plain is the untraced pass made
// beside it, p the pass with the bench's boundary wrappers on and v what
// checking it found, ref the traced layer replay.
func perLayer(in *inputs, plain, p *passResult, v verdict, ref *replayResult, decodeAllocs float64) map[string]float64 {
	self := selfTimes(ref.spans)
	ns := func(span string) float64 { return float64(self[span].selfNs) }
	per := func(span string, n int) float64 { return ratio(ns(span), float64(n)) }
	calls := func(span string) float64 { return float64(self[span].calls) }
	m := map[string]float64{
		"traceio.decode_ns_per_event": per("traceio.decode", ref.events),
		"traceio.bytes_per_event":     ratio(float64(ref.wireBytes), float64(ref.events)),
		"traceio.allocs_per_kevent":   decodeAllocs,
		"window.add_ns_per_event":     per("window.add", ref.events),
		"pmf.features_ns_per_window":  per("pmf.features", ref.windows),
		"distance.gate_ns_per_window": per("distance.gate", ref.windows),
		"distance.rows_ns_per_row":    ratio(ns("distance.rows"), calls("distance.rows")*float64(in.learned.Model.Len())),
		"lof.score_us":                ratio(ns("lof.score"), calls("lof.score")) / 1e3,
		"lof.knn_select_share": ratio(ratio(ns("lof.knn"), calls("lof.knn"))-ratio(ns("distance.rows"), calls("distance.rows")),
			ratio(ns("lof.score"), calls("lof.score"))),
		"lof.calls":      calls("lof.score"),
		"lof.ref_points": float64(in.learned.Model.Len()),
	}

	// ProcessWindow's own cost, split by whether the gate tripped.
	tripped := make(map[int]bool, len(ref.spans))
	for _, s := range ref.spans {
		if s.Name == "lof.score" {
			tripped[s.ID] = true
		}
	}
	var quietNs, tripNs, quietN, tripN, processNs float64
	for _, s := range ref.spans {
		if s.Name != "core.process_window" {
			continue
		}
		d := float64(s.End - s.Start)
		processNs += d
		if tripped[s.ID] {
			tripNs, tripN = tripNs+d, tripN+1
		} else {
			quietNs, quietN = quietNs+d, quietN+1
		}
	}
	m["core.process_window_quiet_ns"] = ratio(quietNs, quietN)
	m["core.process_window_trip_us"] = ratio(tripNs, tripN) / 1e3
	st := p.stats
	m["core.gate_trip_share"] = ratio(float64(st.GateTrips), float64(st.Windows))
	m["core.lof_anomaly_share"] = ratio(float64(st.Anomalies), float64(st.LOFCalls))
	m["core.learn_s"] = in.learnS
	m["core.model_load_s"] = in.loadS

	var recNs float64
	var recN int
	for _, s := range p.sinks {
		if s == nil {
			continue
		}
		for _, r := range s.recs {
			recNs += float64(r.durNs)
		}
		recN += len(s.recs)
	}
	m["recorder.record_us"] = ratio(recNs, float64(recN)) / 1e3
	m["recorder.windows_recorded"] = float64(st.RecordedWindows)
	m["recorder.bytes_recorded"] = float64(st.RecordedBytes)

	appends := sorted(ref.appendUs)
	m["anomalystore.append_us_p50"] = percentile(appends, 50)
	m["anomalystore.append_us_p95"] = percentile(appends, 95)
	m["anomalystore.appends"] = float64(p.store.Appended)
	m["anomalystore.bytes"] = float64(p.store.Bytes)
	m["anomalystore.errors"] = float64(st.AnomalyStoreErrors + st.AlertStoreErrors)

	m["alert.observe_ns"] = ratio(ns("alert.observe"), calls("alert.observe"))
	m["alert.fired"] = float64(p.alerts.Fired)
	var delivered float64
	for _, s := range p.alerts.Sinks {
		delivered += float64(s.Delivered)
	}
	m["alert.delivered"] = delivered
	m["alert.dropped"] = float64(p.alerts.QueueDropped + p.alerts.RateLimited())

	streamS := p.wallS * connections
	m["serve.queue_wait_mean_us"] = 1e6 * ratio(metricSum(p.metrics, "enduratrace_pipeline_queue_wait_seconds_sum"),
		metricSum(p.metrics, "enduratrace_pipeline_queue_wait_seconds_count"))
	m["serve.score_busy_share"] = metricSum(p.metrics, "enduratrace_pipeline_score_seconds_sum") / streamS
	depths := sorted(p.depths)
	m["serve.queue_depth_p50"] = percentile(depths, 50)
	m["serve.queue_depth_max"] = percentile(depths, 100)
	m["serve.backlog_events_max"] = float64(p.backlogMax)
	m["serve.client_blocked_share"] = p.blockedS / streamS
	m["serve.dropped_events"] = float64(st.DroppedEvents)
	m["serve.allocs_per_kevent"] = 1e3 * ratio(float64(p.mallocs), float64(p.events))
	m["serve.gc_pause_ms"] = p.gcPauseMs
	lags := sorted(lagsMs(p))
	m["serve.record_lag_p50_ms"] = percentile(lags, 50)
	m["serve.record_lag_p90_ms"] = percentile(lags, 90)
	// The lag tail is the highest percentile the sample supports, named
	// beside it with the sample's size.
	top := topPercentile(len(lags))
	m["serve.record_lag_top_ms"] = percentile(lags, top)
	m["serve.record_lag_top_pct"] = top
	m["serve.record_lag_samples"] = float64(len(lags))
	m["serve.record_lag_over_500ms"] = float64(lagsOver(p))

	// The socket-free baseline is what the daemon's scoring goroutine
	// would do alone: decode, window, ProcessWindow and the writes.
	baseNs := ns("traceio.decode") + ns("window.add") + processNs +
		ns("recorder.record") + ns("anomalystore.append") + ns("alert.observe")
	m["replay.events_per_s"] = ratio(float64(ref.events), baseNs/1e9)

	// The stage budget: the replayed prefix gives each layer's cost per
	// unit of its work, the untraced pass says how many units the whole
	// run held, and their product over the stream-seconds that pass had is
	// the share of the run the layers explain.
	replayed := map[workUnit]float64{perEvent: float64(ref.events), perWindow: float64(ref.windows), perTrip: float64(ref.trips), perRecord: float64(len(ref.anomalous))}
	ran := map[workUnit]float64{perEvent: float64(plain.events), perWindow: float64(plain.stats.Windows), perTrip: float64(plain.stats.GateTrips), perRecord: float64(plain.stats.RecordedWindows)}
	var budgetNs float64
	for _, l := range budgetLayers {
		budgetNs += ratio(ns(l.span), replayed[l.unit]) * ran[l.unit]
	}
	for _, l := range budgetLayers {
		m[l.share] = ratio(ratio(ns(l.span), replayed[l.unit])*ran[l.unit], budgetNs)
	}
	m["budget.explained"] = ratio(budgetNs/1e9, plain.wallS*connections)

	q := scoreQuality(in, p)
	m["quality.delta_s_ms"] = q.deltaSMs
	m["quality.failed_share"] = ratio(float64(v.failed), float64(v.attempted))
	m["gen.late_p95_ms"] = lateP95(p)
	m["gen.encode_s"] = in.encodeS
	m["trace.overhead_share"] = 1 - ratio(float64(p.events)/p.wallS, float64(plain.events)/plain.wallS)
	return m
}

// withUnits pairs values with the units their table gives them, and
// fails if the two disagree on which metrics exist.
func withUnits(defs []def, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics the benchmark does not name: %v", extra)
	}
	return out, nil
}
