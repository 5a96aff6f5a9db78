package eval

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/lof"
	"enduratrace/internal/recorder"
)

// tripsFixture is a model and the queries it answers.
type tripsFixture struct {
	model   *lof.Model
	queries [][]float64
}

// defaultTrips learns the default model and collects the features of
// every window of the default experiment that trips the gate: the queries
// LOF answers in the shipped configuration. Computed once per test binary.
var defaultTrips = sync.OnceValues(func() (tripsFixture, error) {
	opts := DefaultOptions()
	learned, err := Learn(opts)
	if err != nil {
		return tripsFixture{}, err
	}
	sim, _, err := PerturbedRun(opts)
	if err != nil {
		return tripsFixture{}, err
	}
	fx := tripsFixture{model: learned.Model}
	_, err = core.Run(opts.Core, learned, sim, recorder.NewNullSink(), func(d core.Decision) error {
		if d.GateTripped { // Features aliases the monitor's buffer
			fx.queries = append(fx.queries, append([]float64(nil), d.Features...))
		}
		return nil
	})
	return fx, err
})

// referenceModel learns the default configuration from the paper's 300 s
// reference (§III): 7 500 rows at 40 ms windows. Computed once per test
// binary.
var referenceModel = sync.OnceValues(func() (*lof.Model, error) {
	opts := DefaultOptions()
	opts.RefDuration = 300 * time.Second
	learned, err := Learn(opts)
	if err != nil {
		return nil, err
	}
	return learned.Model, nil
})

// BenchmarkScoreDefaultModel measures Scorer.Score on the data the shipped
// configuration scores: the default experiment's tripped windows against
// Learn(DefaultOptions())'s 3 000-point model, which holds many duplicate
// rows where lof's BenchmarkScoreBruteSymKL3000 draws uniform points with
// none. It reports the exact kernel calls a query (exact/op), the share of
// the n·dim reference components the filter read (read/op) and the live
// heap of the model (model_B).
func BenchmarkScoreDefaultModel(b *testing.B) {
	fx, err := defaultTrips()
	if err != nil {
		b.Fatal(err)
	}
	benchScore(b, fx.model, fx.queries)
}

// BenchmarkScoreReferenceModel is BenchmarkScoreDefaultModel against the
// model of the paper's reference size (referenceModel, n = 7 500), over
// the same tripped windows: the gate does not depend on the model.
func BenchmarkScoreReferenceModel(b *testing.B) {
	fx, err := defaultTrips()
	if err != nil {
		b.Fatal(err)
	}
	m, err := referenceModel()
	if err != nil {
		b.Fatal(err)
	}
	benchScore(b, m, fx.queries)
}

// BenchmarkFitDefaultModel measures lof.Fit on Learn(DefaultOptions())'s
// 3 000 points, the fit setup_s pays once (in Learn; loading restores the
// fit), its k-NN on GOMAXPROCS workers, on data with the shipped share of
// duplicate rows, and reports the fitted model's live heap (model_B).
func BenchmarkFitDefaultModel(b *testing.B) {
	fx, err := defaultTrips()
	if err != nil {
		b.Fatal(err)
	}
	m := fx.model
	pts := m.PointRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lof.Fit(pts, m.K, m.Dist); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportModelBytes(b, func() (any, error) { return lof.Fit(pts, m.K, m.Dist) })
}

// BenchmarkLoadModelDefault measures core.LoadModel of Learn(
// DefaultOptions())'s model from its file's bytes in memory: the JSON
// decode, the index build and the sample check of the stored fit, what
// setup_s pays to load a model now that loading does not fit. It reports
// the file's size (file_B) and the loaded model's live heap (model_B).
func BenchmarkLoadModelDefault(b *testing.B) {
	file := defaultModelFile(b)
	load := func() (any, error) {
		_, l, err := core.LoadModel(bytes.NewReader(file))
		return l, err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := load(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(file)), "file_B")
	reportModelBytes(b, load)
}

// defaultModelFile is the model file of Learn(DefaultOptions()); the
// learned model is garbage once it returns.
func defaultModelFile(b *testing.B) []byte {
	opts := DefaultOptions()
	learned, err := Learn(opts)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveModel(&buf, opts.Core, learned); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// reportModelBytes builds a model and reports the live heap it holds as
// model_B: the heap after the build less the heap before it, each read
// after a collection. The heap before is read after two, so that what
// sync.Pools held (json's encoder buffer, say) has gone by then.
func reportModelBytes(b *testing.B, build func() (any, error)) {
	b.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	fresh, err := build()
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)-float64(before), "model_B")
	runtime.KeepAlive(fresh)
	runtime.KeepAlive(build) // and what it reads from, a model file say
}

// benchScore scores queries against m in turn and reports exact/op,
// read/op and model_B.
func benchScore(b *testing.B, m *lof.Model, queries [][]float64) {
	sc := m.NewScorer()
	sc.Score(queries[0]) // grow the scratch
	_, warm, warmRead := sc.FilterStats()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sc.Score(queries[i%len(queries)])
	}
	b.StopTimer()
	_, refined, read := sc.FilterStats()
	b.ReportMetric(float64(refined-warm)/float64(b.N), "exact/op")
	b.ReportMetric(float64(read-warmRead)/float64(b.N*m.Len()*m.Dim()), "read/op")
	_ = sink
	pts := m.PointRows()
	reportModelBytes(b, func() (any, error) { return lof.Fit(pts, m.K, m.Dist) })
}
