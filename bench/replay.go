package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/distance"
	"enduratrace/internal/lof"
	"enduratrace/internal/pmf"
	"enduratrace/internal/recorder"
	"enduratrace/internal/serve"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// probeEvery is how often a tripped window of the traced replay also
// times the k-NN query and the bare row kernel: often enough for a few
// dozen samples, seldom enough not to double the replay.
const probeEvery = 8

// replayResult is what one goroutine walking the prefix of stream 0
// through the public functions, in pipeline order, produced. The
// decisions are the reference every serve pass is checked against.
type replayResult struct {
	events, windows, trips int
	anomalous              []int // indices of the windows ProcessWindow flagged
	wireBytes              int
	// Filled by a traced replay only.
	spans    []span
	appendUs []float64
	store    anomalystore.StoreStats
	alerts   alert.Books
}

// prefixBytes returns stream 0's header and first-lap frames up to the
// one that closes the n-th window, terminated by an end-of-stream marker.
func prefixBytes(st *streamInput, n int) []byte {
	p := st.coverWindows(n)
	end := st.first.frames[p.frames-1].end
	src := make([]byte, 0, len(st.header)+end+1)
	src = append(src, st.header...)
	src = append(src, st.first.bytes[:end]...)
	return append(src, 0)
}

// rowKernel returns the distance row kernel the configuration selects,
// bound to the model's reference matrix.
func rowKernel(cfg core.Config, m *lof.Model) func(q, out []float64) {
	rows, dim := m.Rows(), m.Dim()
	if cfg.FastKernels && distance.FastRowsFor(cfg.LOFDistance.Name) {
		logs := distance.NewLogRows(rows, dim)
		qlogs := make([]float64, dim)
		switch cfg.LOFDistance.Name {
		case "symkl":
			return func(q, out []float64) { distance.QueryLogs(q, qlogs); logs.SymKLRows(q, qlogs, out) }
		case "kl":
			return func(q, out []float64) { distance.QueryLogs(q, qlogs); logs.KLRows(q, qlogs, out) }
		case "jsd":
			return func(q, out []float64) { logs.JSDRows(q, distance.QueryNegEntropy(q), out) }
		}
	}
	exact := distance.RowsOf(cfg.LOFDistance)
	return func(q, out []float64) { exact(q, rows, dim, out) }
}

// replay decodes, windows and judges the first in.replayN windows of
// stream 0 on the calling goroutine. With a nil tracer it is the plain
// reference computation: decode, window, Monitor.ProcessWindow. With a
// tracer it also calls each layer's public function on the same window,
// one span per call, and for a persisting workload appends the incidents
// and feeds the alert state machine as the daemon would; dir is where
// those write.
func replay(in *inputs, tr *tracer, dir string) (out *replayResult, err error) {
	src := prefixBytes(in.streams[0], in.replayN)
	res := &replayResult{wireBytes: len(src)}
	fr, err := traceio.NewFrameReader(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	defer fr.Release()
	mon, err := core.NewMonitor(in.cfg, in.learned)
	if err != nil {
		return nil, err
	}

	var lw *layerWalk
	if tr != nil {
		if lw, err = newLayerWalk(in, tr, dir); err != nil {
			return nil, err
		}
		defer func() {
			if cerr := lw.close(res); err == nil && cerr != nil {
				out, err = nil, cerr
			}
		}()
	}

	wdr := window.NewByTime(in.win)
	evBuf := make([]trace.Event, 512)
	var wins []window.Window
	for res.windows < in.replayN {
		s := tr.begin("traceio.decode", -1)
		n, rerr := fr.ReadBatch(evBuf)
		tr.end(s)
		if rerr != nil {
			return nil, fmt.Errorf("replay ran out of input after %d of %d windows: %w", res.windows, in.replayN, rerr)
		}
		res.events += n

		s = tr.begin("window.add", -1)
		wins = wins[:0]
		for _, ev := range evBuf[:n] {
			if w, ok := wdr.Add(ev); ok {
				wins = append(wins, w)
			}
			for {
				w, ok := wdr.Drain()
				if !ok {
					break
				}
				wins = append(wins, w)
			}
		}
		tr.end(s)

		for _, w := range wins {
			if res.windows == in.replayN {
				break
			}
			root := tr.begin("replay.window", w.Index)
			s := tr.begin("core.process_window", w.Index)
			d := mon.ProcessWindow(w)
			tr.end(s)
			res.windows++
			if d.GateTripped {
				res.trips++
			}
			if d.Anomalous {
				res.anomalous = append(res.anomalous, w.Index)
			}
			if lw != nil {
				if err := lw.window(d, res); err != nil {
					return nil, err
				}
			}
			tr.end(root)
		}
	}
	if tr != nil {
		res.spans = tr.spans
	}
	return res, nil
}

// layerWalk is the traced replay's second look at each window: the
// layers' public functions called one by one with the bench's own
// buffers. The monitor has already judged the window, so what is timed
// here repeats its work on the same input and changes no decision.
type layerWalk struct {
	in   *inputs
	tr   *tracer
	feat pmf.Featurizer
	// fbuf/cbuf are the featurizer's buffers; prev is the previous window's
	// pmf, which stands in for the monitor's past pmf as the gate
	// distance's second operand (its cost does not depend on the values).
	fbuf, prev pmf.Vector
	cbuf       pmf.Counts
	scorer     *lof.Scorer
	index      *lof.BruteIndex
	scratch    lof.Scratch
	rows       func(q, out []float64)
	rowsOut    []float64
	sink       recorder.Sink
	// store, pipeline and astream exist for a persisting workload only;
	// ring is the pre-trip context an incident carries, as serve keeps it.
	store    *anomalystore.Store
	pipeline *alert.Pipeline
	astream  *alert.Stream
	ring     []window.Window
}

func newLayerWalk(in *inputs, tr *tracer, dir string) (*layerWalk, error) {
	m := in.learned.Model
	lw := &layerWalk{
		in:      in,
		tr:      tr,
		feat:    in.learned.Featurizer,
		scorer:  m.NewScorer(),
		index:   lof.NewBruteIndex(m.Rows(), m.Dim(), in.cfg.LOFDistance),
		rows:    rowKernel(in.cfg, m),
		rowsOut: make([]float64, m.Len()),
		sink:    recorder.NewNullSink(),
	}
	if in.cfg.FastKernels {
		lw.index.EnableFastKernels()
	}
	lw.fbuf = make(pmf.Vector, lw.feat.FeatureDim())
	lw.cbuf = make(pmf.Counts, lw.feat.Dim)
	lw.prev = pmf.Uniform(lw.feat.Dim)
	if !in.spec.persist {
		return lw, nil
	}
	fs, err := recorder.NewFileSink(filepath.Join(dir, "replay.etrc"), -1)
	if err != nil {
		return nil, err
	}
	lw.sink = fs
	if lw.store, err = anomalystore.Open(filepath.Join(dir, "replay-store"), anomalystore.Options{}); err != nil {
		_ = fs.Close() // the open error is the one to report
		return nil, err
	}
	lw.pipeline = alert.NewPipeline(alert.Options{Sinks: []alert.Sink{discardAlerts{}}})
	lw.astream = lw.pipeline.Register("replay", "default")
	return lw, nil
}

func (lw *layerWalk) window(d core.Decision, res *replayResult) error {
	tr, w := lw.tr, d.Window
	s := tr.begin("pmf.features", w.Index)
	f := lw.feat.FeaturesInto(lw.fbuf, lw.cbuf, w)
	tr.end(s)

	npmf := lw.feat.PMFOnly(f)
	s = tr.begin("distance.gate", w.Index)
	sinkFloat = lw.in.cfg.GateDistance.F(npmf, lw.prev)
	tr.end(s)
	copy(lw.prev, npmf)

	if d.GateTripped {
		s = tr.begin("lof.score", w.Index)
		sinkFloat = lw.scorer.Score(f)
		tr.end(s)
		if (res.trips-1)%probeEvery == 0 {
			// Probes sit outside the window's budget: they time parts of
			// what lof.score has just been charged for.
			p := tr.begin("probe", w.Index)
			s = tr.begin("lof.knn", w.Index)
			lw.index.KNN(f, lw.in.cfg.K, -1, &lw.scratch)
			tr.end(s)
			s = tr.begin("distance.rows", w.Index)
			lw.rows(f, lw.rowsOut)
			tr.end(s)
			tr.end(p)
		}
	}
	if d.Anomalous {
		s = tr.begin("recorder.record", w.Index)
		err := lw.sink.Record(w)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	if lw.store == nil {
		return nil
	}
	s = tr.begin("alert.observe", w.Index)
	lw.astream.Observe(alert.Observation{
		GateTripped: d.GateTripped, Anomalous: d.Anomalous,
		GateDist: d.GateDist, LOF: d.LOF, WindowIndex: w.Index,
	})
	tr.end(s)
	if !d.GateTripped {
		if lw.ring = append(lw.ring, w); len(lw.ring) > serve.DefaultAnomalyContext {
			lw.ring = lw.ring[1:]
		}
		return nil
	}
	inc := anomalystore.Incident{
		Stream: "replay", Model: "default", Score: d.LOF, GateDist: d.GateDist,
		Alpha: lw.in.cfg.Alpha, Anomalous: d.Anomalous,
		WindowIndex: w.Index, Start: w.Start, End: w.End,
		Windows: append(lw.ring[:len(lw.ring):len(lw.ring)], w),
	}
	lw.ring = lw.ring[:0]
	s = tr.begin("anomalystore.append", w.Index)
	_, err := lw.store.Append(inc)
	tr.end(s)
	res.appendUs = append(res.appendUs, float64(tr.spans[s].End-tr.spans[s].Start)/1e3)
	return err
}

// close releases what the walk opened and reads the books of the store
// and the alert pipeline it fed.
func (lw *layerWalk) close(res *replayResult) error {
	err := lw.sink.Close()
	if lw.store == nil {
		return err
	}
	lw.astream.Close()
	lw.pipeline.Drain(drainTimeout)
	res.alerts = lw.pipeline.Books()
	res.store = lw.store.Stats()
	if cerr := lw.pipeline.Close(); err == nil {
		err = cerr
	}
	if cerr := lw.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// sinkFloat keeps the compiler from discarding a call timed only for its
// duration.
var sinkFloat float64

// decodeAllocs decodes the replay prefix once more, with nothing else
// running on this goroutine, and returns the heap allocations per
// thousand events.
func decodeAllocs(in *inputs) (float64, error) {
	src := prefixBytes(in.streams[0], in.replayN)
	fr, err := traceio.NewFrameReader(bytes.NewReader(src))
	if err != nil {
		return 0, err
	}
	defer fr.Release()
	evBuf := make([]trace.Event, 512)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	events := 0
	for {
		n, err := fr.ReadBatch(evBuf)
		events += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(events) * 1e3, nil
}
