package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"enduratrace/internal/core"
	"enduratrace/internal/lof"
	"enduratrace/internal/recorder"
)

// TestDefaultEvalGolden pins the default experiment, seed 1: the books the
// wire benchmark also checks (15 000 windows, 9 376 gate trips, 2 578
// anomalies) and a hash over the LOF bit pattern of every tripped window,
// captured with the full exact scan before the k-NN went through the
// float32-log filter. Any kernel, index or selection change that moves one
// bit of one score fails here.
//
// On the same data it guards the refine's cost, at fit and at run time:
// more than 3·K exact kernel calls a query at fit time, or at run time
// more than 28 (the shipped path makes 24.0) or a filter reading more than
// 0.28 of the components (it reads 0.217: a copy of a row reads nothing),
// would stay correct and silently give the speed back. The run-time
// bounds are deterministic counts, tight enough that a batched first
// block that abandons too little, a cut that goes stale for too long, a
// copy of a row that is resolved again instead of sharing its group's
// distance, or a column order that stops separating rows, fails here.
func TestDefaultEvalGolden(t *testing.T) {
	const wantLOFHash = "9b8f1a52527779a91751620f3edc228657d5a8ff92738256526d068f0a4a7e82"
	opts := DefaultOptions()
	learned, err := Learn(opts)
	if err != nil {
		t.Fatal(err)
	}
	sim, _, err := perturbedRun(opts)
	if err != nil {
		t.Fatal(err)
	}
	// A scorer of the test's own re-scores every 8th tripped window, for
	// the run-time filter counts the monitor's private scorer keeps.
	sc := learned.Model.NewScorer()
	h := sha256.New()
	var bits [8]byte
	var trips int
	stats, err := core.Run(opts.Core, learned, sim, recorder.NewNullSink(), func(d core.Decision) error {
		if !d.GateTripped {
			return nil
		}
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(d.LOF))
		h.Write(bits[:])
		if trips++; trips%8 == 0 {
			if again := sc.Score(d.Features); math.Float64bits(again) != math.Float64bits(d.LOF) {
				t.Errorf("window %d: monitor LOF %v, fresh scorer %v", d.Window.Index, d.LOF, again)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 15000 || stats.GateTrips != 9376 || stats.Anomalies != 2578 {
		t.Errorf("books %d windows / %d trips / %d anomalies, want 15000 / 9376 / 2578",
			stats.Windows, stats.GateTrips, stats.Anomalies)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantLOFHash {
		t.Errorf("tripped-window LOF bits hash %s, want %s", got, wantLOFHash)
	}

	m := learned.Model
	// rows is the rows a query runs through the filter: all of them at run
	// time, all but the query's own at fit time.
	assertPrunes := func(when string, rows, queries, filtered, refined, read, maxCalls int) {
		t.Helper()
		if filtered != queries*rows {
			t.Errorf("%s: %d rows filtered, want %d queries x %d rows", when, filtered, queries, rows)
		}
		if refined > maxCalls*queries {
			t.Errorf("%s: %d exact kernel calls over %d queries, want at most %d a query", when, refined, queries, maxCalls)
		}
		t.Logf("%s: %.1f exact kernel calls per query over %d rows, %.3f of their components read",
			when, float64(refined)/float64(queries), rows, float64(read)/float64(queries*rows*m.Dim()))
	}
	filtered, refined, read := sc.FilterStats()
	assertPrunes("run", m.Len(), trips/8, filtered, refined, read, 28)
	if components := trips / 8 * m.Len() * m.Dim(); 100*read > 28*components {
		t.Errorf("run: the filter read %d of %d components over %d queries, want at most 0.28 of them",
			read, components, trips/8)
	}

	idx := lof.NewBruteIndex(m.Rows(), m.Dim(), opts.Core.LOFDistance)
	var s lof.Scratch
	for i := 0; i < m.Len(); i++ {
		idx.KNN(m.Row(i), opts.Core.K, i, &s)
	}
	filtered, refined, read = s.FilterStats()
	assertPrunes("fit", m.Len()-1, m.Len(), filtered, refined, read, 3*m.K)
}
