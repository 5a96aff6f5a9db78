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

// copyGroupReference is a cluster of points with K+1 bitwise copies of
// one row planted in it, plus that row. The copies' K-th neighbours all
// sit at distance 0; pmf rows when simplex is set, for the KL kernels.
func copyGroupReference(k int, simplex bool) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(5))
	pts := cluster(rng, 60, 4, 1, 0.1)
	if simplex {
		for _, p := range pts {
			var sum float64
			for j := range p {
				p[j] = math.Abs(p[j])
				sum += p[j]
			}
			for j := range p {
				p[j] /= sum
			}
		}
	}
	row := append([]float64(nil), pts[0]...)
	for c := 0; c < k; c++ {
		pts = append(pts, append([]float64(nil), row...))
	}
	return pts, row
}

// TestCopyGroupAboveKStaysFinite: with more than K copies of one row, the
// copy rule gives them a positive k-distance, so every train score is
// finite (Breunig's definition gives the points that have a copy among
// their neighbours an infinite LOF). A query equal to the row sits inside
// its copies' neighbourhood, LOF exactly 1, and one next to it scores
// near 1 too, where Breunig's definition scores it +Inf.
func TestCopyGroupAboveKStaysFinite(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		dist    distance.Distance
		simplex bool
	}{{l2(), false}, {distance.Must("symkl"), true}} {
		pts, row := copyGroupReference(k, tc.simplex)
		m, err := Fit(pts, k, tc.dist)
		if err != nil {
			t.Fatalf("%s: %v", tc.dist.Name, err)
		}
		for i, s := range m.TrainScores() {
			if math.IsInf(s, 0) || math.IsNaN(s) {
				t.Fatalf("%s: train point %d: LOF = %g, want finite", tc.dist.Name, i, s)
			}
		}
		if s := m.Score(row); s != 1 {
			t.Fatalf("%s: query equal to the copied row: LOF = %g, want exactly 1", tc.dist.Name, s)
		}
		near := append([]float64(nil), row...)
		near[0], near[1] = near[0]+1e-4, near[1]-1e-4
		if s := m.Score(near); !(s < 2) {
			t.Fatalf("%s: query next to the copied row: LOF = %g, want finite and near 1", tc.dist.Name, s)
		}
	}
}

// TestFitRejectsAllEqualRows: where every row is equal no point has a
// neighbour at a positive distance, and the copy rule has no k-distance
// to give.
func TestFitRejectsAllEqualRows(t *testing.T) {
	pts := make([][]float64, 12)
	for i := range pts {
		pts[i] = []float64{1, 1}
	}
	if _, err := Fit(pts, 3, l2()); !errors.Is(err, ErrTooFewPoints) {
		t.Fatalf("Fit over equal rows: err = %v, want ErrTooFewPoints", err)
	}
}
