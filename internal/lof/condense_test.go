package lof

import (
	"errors"
	"math"
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

func TestCondenseShrinksModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := pmfPoints(rng, 400, 8)
	m, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{CondenseTarget: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 60 {
		t.Fatalf("condensed model has %d points, want 60", m.Len())
	}
	if m.Cond == nil || m.Cond.OriginalN != 400 || m.Cond.KeptN != 60 {
		t.Fatalf("condense report %+v, want 400 -> 60", m.Cond)
	}
	// The report quantiles summarise the full original set under the
	// condensed model; for i.i.d. points they must be finite, ordered and
	// near 1.
	c := m.Cond
	if !(c.P50 <= c.P90 && c.P90 <= c.P95 && c.P95 <= c.P99) {
		t.Fatalf("unordered quantiles %+v", c)
	}
	if c.P50 < 0.5 || c.P99 > 10 || math.IsInf(c.P99, 0) || math.IsNaN(c.P50) {
		t.Fatalf("implausible quantiles %+v", c)
	}
	// Every condensed row must be one of the original points.
	orig := make(map[[8]float64]bool, len(pts))
	for _, p := range pts {
		var k [8]float64
		copy(k[:], p)
		orig[k] = true
	}
	for i := 0; i < m.Len(); i++ {
		var k [8]float64
		copy(k[:], m.Row(i))
		if !orig[k] {
			t.Fatalf("condensed row %d is not an original point", i)
		}
	}
}

func TestCondenseDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := pmfPoints(rng, 200, 6)
	fit := func() *Model {
		m, err := Fit(pts, 8, distance.Must("symkl"), FitOptions{CondenseTarget: 40, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := fit(), fit()
	q := pmfPoints(rng, 1, 6)[0]
	if sa, sb := a.Score(q), b.Score(q); sa != sb {
		t.Fatalf("condensed fits disagree: %v vs %v", sa, sb)
	}
	for i := 0; i < a.Len(); i++ {
		for j, v := range a.Row(i) {
			if b.Row(i)[j] != v {
				t.Fatalf("condensed matrices differ at row %d", i)
			}
		}
	}
}

// TestCondenseNoOpWhenTargetCoversSet: a target >= n keeps every point
// (no report) but still routes scoring through the fast kernels — the
// reload path relies on this being a pure no-op selection.
func TestCondenseNoOpWhenTargetCoversSet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := pmfPoints(rng, 50, 6)
	m, err := Fit(pts, 8, distance.Must("symkl"), FitOptions{CondenseTarget: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 50 || m.Cond != nil {
		t.Fatalf("no-op condensation: len %d cond %+v, want 50/nil", m.Len(), m.Cond)
	}
}

func TestCondenseTargetMustExceedK(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := pmfPoints(rng, 50, 4)
	if _, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{CondenseTarget: 10}); err == nil {
		t.Fatal("Fit accepted CondenseTarget == K")
	}
	if _, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{CondenseTarget: 5}); err == nil {
		t.Fatal("Fit accepted CondenseTarget < K")
	}
}

// TestCondenseDuplicateHeavySet: farthest-point sampling stops early when
// the remaining points duplicate kept ones; with only K or fewer distinct
// points the fit must fail loudly instead of building a degenerate model.
func TestCondenseDuplicateHeavySet(t *testing.T) {
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{0.5, 0.5} // all identical
	}
	_, err := Fit(pts, 3, distance.Must("l2"), FitOptions{CondenseTarget: 10})
	if !errors.Is(err, ErrTooFewPoints) {
		t.Fatalf("err = %v, want ErrTooFewPoints (1 distinct point)", err)
	}
}

// TestCondensedScoresTrackExact: condensation is approximate, but on a
// well-covered cluster the condensed score must stay close to the exact
// model's for both inliers and the planted outlier's verdict.
func TestCondensedScoresTrackExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := pmfPoints(rng, 500, 8)
	exact, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cond, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{CondenseTarget: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inlier := pmfPoints(rng, 1, 8)[0]
	se, sc := exact.Score(inlier), cond.Score(inlier)
	if math.Abs(se-sc) > 0.5*se {
		t.Fatalf("inlier: exact %v vs condensed %v", se, sc)
	}
	// A far-off corner pmf must be flagged hard by both.
	outlier := []float64{0.93, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01}
	if se, sc = exact.Score(outlier), cond.Score(outlier); sc < 2 || se < 2 {
		t.Fatalf("outlier: exact %v vs condensed %v, want both >> 1", se, sc)
	}
}

// TestScorerMatchesModelScore: the per-goroutine Scorer and the
// convenience Model.Score must agree exactly, condensed or not.
func TestScorerMatchesModelScore(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := pmfPoints(rng, 300, 8)
	for _, target := range []int{0, 80} {
		m, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{CondenseTarget: target, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		sc := m.NewScorer()
		for _, q := range pmfPoints(rng, 20, 8) {
			if a, b := sc.Score(q), m.Score(q); a != b {
				t.Fatalf("target %d: scorer %v != model %v", target, a, b)
			}
		}
	}
}

// TestScorerZeroAlloc is the allocation-regression gate for the scoring
// hot path: after warmup, Scorer.Score must not allocate — on the exact
// filter-and-refine path, the condensed fast-KL path, and the plain scan of
// a distance with no log table.
func TestScorerZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := pmfPoints(rng, 300, 8)
	cases := []struct {
		name string
		dist string
		opts FitOptions
	}{
		{"brute-exact", "symkl", FitOptions{}},
		{"brute-condensed-fast", "symkl", FitOptions{CondenseTarget: 80, Seed: 1}},
		{"brute-hellinger", "hellinger", FitOptions{}},
	}
	q := pmfPoints(rng, 1, 8)[0]
	for _, tc := range cases {
		m, err := Fit(pts, 10, distance.Must(tc.dist), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		sc := m.NewScorer()
		sc.Score(q) // warm the scratch
		var sink float64
		if allocs := testing.AllocsPerRun(100, func() { sink += sc.Score(q) }); allocs != 0 {
			t.Errorf("%s: Scorer.Score allocates %v/op, want 0", tc.name, allocs)
		}
		_ = sink
	}
}

// TestConcurrentScorersRaceClean drives many Scorers over one shared
// Model; run under -race this is the shared-immutable-model guarantee.
func TestConcurrentScorersRaceClean(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pts := pmfPoints(rng, 200, 8)
	m, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{CondenseTarget: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := pmfPoints(rng, 32, 8)
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
