package lof

import (
	"errors"
	"math/rand"
	"testing"

	"enduratrace/internal/distance"
)

// pmfPoints draws n smoothed-pmf-shaped points (strictly positive,
// normalised) — the shape the monitor feeds LOF.
func pmfPoints(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		var sum float64
		for j := range p {
			p[j] = rng.Float64() + 1e-3
			sum += p[j]
		}
		for j := range p {
			p[j] /= sum
		}
		pts[i] = p
	}
	return pts
}

// TestScorerMatchesModelScore: the per-goroutine Scorer and the
// convenience Model.Score must agree exactly.
func TestScorerMatchesModelScore(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := pmfPoints(rng, 300, 8)
	m, err := Fit(pts, 10, distance.Must("symkl"))
	if err != nil {
		t.Fatal(err)
	}
	sc := m.NewScorer()
	for _, q := range pmfPoints(rng, 20, 8) {
		if a, b := sc.Score(q), m.Score(q); a != b {
			t.Fatalf("scorer %v != model %v", a, b)
		}
	}
}

// TestScorerZeroAlloc is the allocation-regression gate for the scoring
// hot path: after warmup, Scorer.Score must not allocate — on the
// filter-and-refine path and on the plain scan of a distance with no log
// table.
func TestScorerZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := pmfPoints(rng, 300, 8)
	q := pmfPoints(rng, 1, 8)[0]
	for _, dist := range []string{"symkl", "hellinger"} {
		m, err := Fit(pts, 10, distance.Must(dist))
		if err != nil {
			t.Fatal(err)
		}
		sc := m.NewScorer()
		sc.Score(q) // warm the scratch
		var sink float64
		if allocs := testing.AllocsPerRun(100, func() { sink += sc.Score(q) }); allocs != 0 {
			t.Errorf("%s: Scorer.Score allocates %v/op, want 0", dist, allocs)
		}
		_ = sink
	}
}

// TestConcurrentScorersRaceClean drives many Scorers over one shared
// Model; run under -race this is the shared-immutable-model guarantee.
func TestConcurrentScorersRaceClean(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pts := pmfPoints(rng, 200, 8)
	queries := pmfPoints(rng, 32, 8)
	m, err := Fit(pts, 10, distance.Must("symkl"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(queries))
	base := m.NewScorer()
	for i, q := range queries {
		want[i] = base.Score(q)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			sc := m.NewScorer()
			for rep := 0; rep < 50; rep++ {
				for i, q := range queries {
					if got := sc.Score(q); got != want[i] {
						done <- errors.New("concurrent scorer diverged")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
