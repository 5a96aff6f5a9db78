// Package lof implements the Local Outlier Factor anomaly score of Breunig,
// Kriegel, Ng & Sander (SIGMOD 2000), the detector at the heart of the
// paper's monitoring approach (§II).
//
// A Model is fitted on the pmf points of a reference trace (the learning
// step). Scoring a new point compares the density around it with the
// density around its K nearest reference points: LOF ≈ 1 means the point
// sits inside a cluster of regular behaviour, LOF ≥ α > 1 flags an outlier.
//
// The fitted model is immutable: its index stores each distinct reference
// point once, in one flat row-major matrix, and every per-point quantity
// (k-distance, local reachability density, training score) is precomputed
// at fit time. One Model can therefore back any number of concurrent
// streams; each stream scores through its own Scorer, a cheap handle
// carrying the reusable scratch that makes steady-state scoring
// allocation-free.
package lof

import (
	"errors"
	"fmt"
	"math"

	"enduratrace/internal/distance"
)

// Model is a fitted LOF reference model. It retains the reference points
// in its brute-force index, which stores each distinct point once, and the
// per-point quantities (k-distance, local reachability density, train
// score) needed to score an unseen point in one pass of that index over
// the n reference rows. A fitted Model is immutable and safe to share
// across goroutines.
type Model struct {
	K    int
	Dist distance.Distance

	n, dim int

	index *BruteIndex
	// Per reference point, computed at fit time:
	kdist []float64 // distance to the K-th nearest reference neighbour
	lrd   []float64 // local reachability density
	train []float64 // LOF of the point within the reference set
}

// ErrTooFewPoints is returned when the reference set cannot support K
// neighbours per point: fewer than K+1 points, or a point with fewer than
// K others at a finite distance.
var ErrTooFewPoints = errors.New("lof: reference set too small for K")

// Fit builds a LOF model over the reference points with neighbourhood size
// k. points must contain at least k+1 vectors of equal dimension, and each
// must have k others at a finite distance. The point data is copied into
// the model's index; the input slice is not retained.
func Fit(points [][]float64, k int, d distance.Distance) (*Model, error) {
	if k <= 0 {
		return nil, fmt.Errorf("lof: K must be positive, got %d", k)
	}
	if len(points) <= k {
		return nil, fmt.Errorf("%w: %d points, K=%d", ErrTooFewPoints, len(points), k)
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("lof: points have dimension 0")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("lof: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	m := &Model{K: k, Dist: d, n: len(points), dim: dim}
	m.index = newBruteIndex(len(points), dim, func(i int) []float64 { return points[i] }, d)

	n := m.n
	m.kdist = make([]float64, n)
	m.lrd = make([]float64, n)
	m.train = make([]float64, n)
	nbrs := make([]Neighbor, n*k) // fit-time only; the model keeps kdist/lrd
	var s Scratch
	for i := 0; i < n; i++ {
		nb := m.index.KNN(m.Row(i), k, i, &s)
		if len(nb) < k {
			// k-NN selection never ranks a +Inf or NaN distance.
			return nil, fmt.Errorf("%w: point %d has %d neighbours at a finite distance, K=%d",
				ErrTooFewPoints, i, len(nb), k)
		}
		copy(nbrs[i*k:(i+1)*k], nb)
		m.kdist[i] = nb[k-1].Dist
	}
	for i := 0; i < n; i++ {
		m.lrd[i] = m.lrdOf(nbrs[i*k : (i+1)*k])
	}
	for i := 0; i < n; i++ {
		m.train[i] = m.ratioMean(nbrs[i*k:(i+1)*k], m.lrd[i])
	}
	return m, nil
}

// lrdOf computes the local reachability density given a point's K nearest
// neighbours: 1 / mean(reach-dist), where
// reach-dist(p, o) = max(kdist(o), d(p, o)).
// A zero mean reachability (duplicated points) yields +Inf, per the paper's
// convention for duplicate-heavy data.
func (m *Model) lrdOf(nbrs []Neighbor) float64 {
	var sum float64
	for _, nb := range nbrs {
		rd := nb.Dist
		if kd := m.kdist[nb.Idx]; kd > rd {
			rd = kd
		}
		sum += rd
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return float64(len(nbrs)) / sum
}

func (m *Model) ratioMean(nbrs []Neighbor, lrdP float64) float64 {
	if len(nbrs) == 0 {
		return 1
	}
	var sum float64
	for _, nb := range nbrs {
		sum += lrdRatio(m.lrd[nb.Idx], lrdP)
	}
	return sum / float64(len(nbrs))
}

// lrdRatio computes lrdO/lrdP with the Inf conventions: Inf/Inf = 1 (a
// duplicate point inside a cluster of duplicates is perfectly regular),
// finite/Inf = 0, Inf/finite = +Inf.
func lrdRatio(lrdO, lrdP float64) float64 {
	oInf, pInf := math.IsInf(lrdO, 1), math.IsInf(lrdP, 1)
	switch {
	case oInf && pInf:
		return 1
	case pInf:
		return 0
	case oInf:
		return math.Inf(1)
	default:
		return lrdO / lrdP
	}
}

// Scorer is a per-goroutine scoring handle over a shared immutable Model.
// It owns the neighbour/distance scratch, so steady-state Score calls
// allocate nothing. Scorers are cheap; create one per goroutine (a Scorer
// itself is not safe for concurrent use, the underlying Model is).
type Scorer struct {
	m *Model
	s Scratch
}

// NewScorer returns a scoring handle over m.
func (m *Model) NewScorer() *Scorer { return &Scorer{m: m} }

// Score returns the LOF of an unseen point q against the reference model.
// Values near 1 indicate q is embedded in a cluster of regular reference
// points; values >= alpha > 1 indicate an outlier (§II).
//
//enduratrace:zeroalloc
func (sc *Scorer) Score(q []float64) float64 {
	m := sc.m
	nbrs := m.index.KNN(q, m.K, -1, &sc.s)
	lrdQ := m.lrdOf(nbrs)
	return m.ratioMean(nbrs, lrdQ)
}

// FilterStats reports the scorer's running filter-and-refine counts; see
// Scratch.FilterStats.
func (sc *Scorer) FilterStats() (filtered, refined, read int) { return sc.s.FilterStats() }

// Score is the convenience form of Scorer.Score for one-off queries; it
// allocates fresh scratch per call. Hot paths should hold a Scorer.
func (m *Model) Score(q []float64) float64 {
	sc := Scorer{m: m}
	return sc.Score(q)
}

// ScoreTrain returns the classic LOF of reference point i within the
// reference set itself (its own point excluded from its neighbourhood),
// precomputed at fit time. It is used by tests against hand-checked
// examples and by threshold diagnostics.
func (m *Model) ScoreTrain(i int) float64 { return m.train[i] }

// TrainScores returns the LOF of every reference point within the reference
// set. Useful to choose alpha: the (1-ε) quantile of training scores is a
// natural floor for the threshold.
func (m *Model) TrainScores() []float64 {
	out := make([]float64, m.n)
	copy(out, m.train)
	return out
}

// Row returns reference point i, a view of the index's storage that
// callers must not mutate. A copy of an earlier point shares that point's
// view. It does not allocate.
func (m *Model) Row(i int) []float64 { return m.index.rowOf(i) }

// Rows builds the n×dim row-major matrix of the reference points, copies
// included. It allocates a new matrix on every call; hot paths use Row.
func (m *Model) Rows() []float64 {
	out := make([]float64, 0, m.n*m.dim)
	for i := 0; i < m.n; i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

// PointRows returns the reference points as a slice of row views (Row),
// with no copy of their data; used by model serialisation.
func (m *Model) PointRows() [][]float64 {
	out := make([][]float64, m.n)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// Dim returns the dimensionality of the reference points.
func (m *Model) Dim() int { return m.dim }

// Len returns the number of reference points.
func (m *Model) Len() int { return m.n }
