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
// On the same data it guards the filter's selectivity, at fit and at run
// time: a bound loose enough to refine more than a tenth of the rows would
// stay correct and silently give the speed back.
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
	assertPrunes := func(when string, filtered, refined, queries int) {
		t.Helper()
		if filtered != queries*m.Len() {
			t.Errorf("%s: %d rows filtered, want %d queries x %d rows", when, filtered, queries, m.Len())
		}
		if refined*10 > filtered {
			t.Errorf("%s: %d of %d filtered rows refined, want at most a tenth", when, refined, filtered)
		}
		t.Logf("%s: %.1f of %d rows refined per query", when, float64(refined)/float64(queries), m.Len())
	}
	filtered, refined := sc.FilterStats()
	assertPrunes("run", filtered, refined, trips/8)

	idx := lof.NewBruteIndex(m.Rows(), m.Dim(), opts.Core.LOFDistance)
	var s lof.Scratch
	for i := 0; i < m.Len(); i++ {
		idx.KNN(m.Row(i), opts.Core.K, i, &s)
	}
	filtered, refined = s.FilterStats()
	assertPrunes("fit", filtered, refined, m.Len())
}
