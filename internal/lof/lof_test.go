package lof

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"enduratrace/internal/distance"
)

// l2 is the Euclidean distance: a Distance from outside the catalogue,
// so an index over it takes the full exact scan.
func l2() distance.Distance {
	return distance.Distance{Name: "euclidean", F: func(p, q []float64) float64 {
		var s float64
		for i := range p {
			d := p[i] - q[i]
			s += d * d
		}
		return math.Sqrt(s)
	}}
}

// cluster draws n gaussian points around center with the given sigma.
func cluster(rng *rand.Rand, n, dim int, center, sigma float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = center + rng.NormFloat64()*sigma
		}
		pts[i] = p
	}
	return pts
}

func TestPlantedOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := cluster(rng, 80, 3, 0, 0.05)
	m, err := Fit(ref, 10, l2())
	if err != nil {
		t.Fatal(err)
	}
	inlier := []float64{0.01, -0.02, 0.015}
	if s := m.Score(inlier); s >= 1.3 {
		t.Fatalf("inlier LOF = %g, want < 1.3", s)
	}
	outlier := []float64{2, 2, 2}
	if s := m.Score(outlier); s <= 1.5 {
		t.Fatalf("outlier LOF = %g, want > 1.5", s)
	}
}

func TestTooFewPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := cluster(rng, 5, 2, 0, 1)
	if _, err := Fit(pts, 5, l2()); !errors.Is(err, ErrTooFewPoints) {
		t.Fatalf("Fit with n == k: err = %v, want ErrTooFewPoints", err)
	}
	if _, err := Fit(pts, 4, l2()); err != nil {
		t.Fatalf("Fit with n == k+1 failed: %v", err)
	}
}

// TestFitRejectsUnrankableNeighbours: k-NN selection never ranks a +Inf or
// NaN distance, so a point with fewer than K others at a finite distance
// has no K-distance. Fit must say so rather than index an empty neighbour
// list or book phantom zero-distance neighbours.
func TestFitRejectsUnrankableNeighbours(t *testing.T) {
	// One-hot rows of 1e308: every pairwise distance overflows.
	oneHot := make([][]float64, 6)
	for i := range oneHot {
		oneHot[i] = make([]float64, 4)
		oneHot[i][i%4] = 1e308
	}
	for _, dist := range []distance.Distance{l2(), distance.Must("symkl")} {
		if _, err := Fit(oneHot, 5, dist); !errors.Is(err, ErrTooFewPoints) {
			t.Fatalf("%s over overflowing rows: err = %v, want ErrTooFewPoints", dist.Name, err)
		}
	}
	// Two far points see each other but nothing else: one finite
	// neighbour where K = 2 needs two.
	far := [][]float64{{0, 0}, {0, 1}, {0, 2}, {1e308, 0}, {1e308, 1}}
	if _, err := Fit(far, 2, l2()); !errors.Is(err, ErrTooFewPoints) {
		t.Fatalf("a point with 1 finite neighbour, K=2: err = %v, want ErrTooFewPoints", err)
	}
	if _, err := Fit(far, 1, l2()); err != nil {
		t.Fatalf("every point has 1 finite neighbour, K=1: %v", err)
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit([][]float64{{1}, {2}}, 0, l2()); err == nil {
		t.Fatal("Fit accepted k=0")
	}
	ragged := [][]float64{{1, 2}, {3}, {4, 5}}
	if _, err := Fit(ragged, 1, l2()); err == nil {
		t.Fatal("Fit accepted ragged dimensions")
	}
}

func TestKNNOrderAndSkip(t *testing.T) {
	flat := []float64{0, 1, 2, 4, 8}
	idx := NewBruteIndex(flat, 1, l2())
	var s Scratch
	nb := idx.KNN([]float64{0}, 3, -1, &s)
	if len(nb) != 3 || nb[0].Idx != 0 || nb[1].Idx != 1 || nb[2].Idx != 2 {
		t.Fatalf("KNN order wrong: %+v", nb)
	}
	for i := 1; i < len(nb); i++ {
		if nb[i].Dist < nb[i-1].Dist {
			t.Fatalf("KNN not ascending: %+v", nb)
		}
	}
	nb = idx.KNN([]float64{0}, 3, 0, &s)
	for _, n := range nb {
		if n.Idx == 0 {
			t.Fatalf("skip ignored: %+v", nb)
		}
	}
}

func TestDuplicatePointsInfConventions(t *testing.T) {
	// A cluster of identical points: every training LOF must be 1 (Inf/Inf
	// convention), and a distant query must still score an outlier.
	pts := make([][]float64, 12)
	for i := range pts {
		pts[i] = []float64{1, 1}
	}
	m, err := Fit(pts, 3, l2())
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if s := m.ScoreTrain(i); s != 1 {
			t.Fatalf("duplicate train point %d: LOF = %g, want 1", i, s)
		}
	}
	if s := m.Score([]float64{5, 5}); !math.IsInf(s, 1) {
		t.Fatalf("distant query against duplicates: LOF = %g, want +Inf", s)
	}
	if s := m.Score([]float64{1, 1}); s != 1 {
		t.Fatalf("duplicate query: LOF = %g, want 1", s)
	}
}
