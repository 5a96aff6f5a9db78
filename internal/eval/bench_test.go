package eval

import (
	"sync"
	"testing"

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
	sim, _, err := perturbedRun(opts)
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

// BenchmarkScoreDefaultModel measures Scorer.Score on the data the shipped
// configuration scores: the default experiment's tripped windows against
// Learn(DefaultOptions())'s 3 000-point model, which holds many duplicate
// rows where lof's BenchmarkScoreBruteSymKL3000 draws uniform points with
// none. It reports the exact kernel calls a query (exact/op).
func BenchmarkScoreDefaultModel(b *testing.B) {
	fx, err := defaultTrips()
	if err != nil {
		b.Fatal(err)
	}
	sc := fx.model.NewScorer()
	sc.Score(fx.queries[0]) // grow the scratch
	_, warm := sc.FilterStats()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sc.Score(fx.queries[i%len(fx.queries)])
	}
	b.StopTimer()
	_, refined := sc.FilterStats()
	b.ReportMetric(float64(refined-warm)/float64(b.N), "exact/op")
	_ = sink
}
