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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
// K others at a finite distance or none at a positive finite distance.
var ErrTooFewPoints = errors.New("lof: reference set too small for K")

// Fit builds a LOF model over the reference points with neighbourhood size
// k. points must contain at least k+1 vectors of equal dimension, and each
// must have k others at a finite distance and one at a positive finite
// distance. The point data is copied into the model's index; the input
// slice is not retained. The copy rule, an extension (DESIGN.md "LOF on
// copied rows"): a point whose k-th neighbour sits at distance 0 takes as
// its k-distance the distance to its nearest neighbour at a positive
// distance, so every density and every score is finite.
//
// The k-NN of the points runs on up to GOMAXPROCS goroutines; the model is
// the same bit for bit whatever their number.
func Fit(points [][]float64, k int, d distance.Distance) (*Model, error) {
	m, err := newModel(points, k, d)
	if err != nil {
		return nil, err
	}
	n := m.n
	m.kdist = make([]float64, n)
	m.lrd = make([]float64, n)
	m.train = make([]float64, n)
	nbrs := make([]Neighbor, n*k) // fit-time only; the model keeps kdist/lrd
	if err := m.fitKNN(nbrs); err != nil {
		return nil, err
	}
	var s Scratch
	positive := make(map[int]float64) // per distinct row: its k-distance under the copy rule
	for i := 0; i < n; i++ {
		if m.kdist[i] > 0 {
			continue
		}
		// More than K copies of one row: their k-distance is the row's
		// nearest positive distance, one scan per row.
		u := m.index.distinct(i)
		kd, ok := positive[u]
		if !ok {
			if kd, err = m.nearestPositive(i, &s); err != nil {
				return nil, err
			}
			positive[u] = kd
		}
		m.kdist[i] = kd
	}
	for i := 0; i < n; i++ {
		m.lrd[i] = m.lrdOf(nbrs[i*k : (i+1)*k])
	}
	for i := 0; i < n; i++ {
		m.train[i] = m.ratioMean(nbrs[i*k:(i+1)*k], m.lrd[i])
	}
	return m, nil
}

// newModel checks the points' shape and indexes them: the model Fit and
// Restore fill in.
func newModel(points [][]float64, k int, d distance.Distance) (*Model, error) {
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
	return m, nil
}

// fitKNN writes point i's K nearest other points to nbrs[i*K:(i+1)*K] and
// the distance to the K-th of them to kdist[i], for every point, on up to
// GOMAXPROCS workers that each claim blocks of rows and hold a Scratch of
// their own. A row's k-NN depends on nothing but the index, so the result
// is the serial loop's bit for bit; of the points with fewer than K
// neighbours at a finite distance, the lowest is the one reported.
func (m *Model) fitKNN(nbrs []Neighbor) error {
	const block = 16
	n, k := m.n, m.K
	workers := min(runtime.GOMAXPROCS(0), n)
	short := make([]shortRow, workers) // each worker's lowest short row
	var next atomic.Int64
	work := func(w int) {
		var s Scratch
		short[w] = shortRow{i: n}
		for {
			lo := int(next.Add(block)) - block
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+block, n); i++ {
				nb := m.index.KNN(m.Row(i), k, i, &s)
				if len(nb) < k { // k-NN selection never ranks a +Inf or NaN distance
					if i < short[w].i {
						short[w] = shortRow{i: i, found: len(nb)}
					}
					continue
				}
				copy(nbrs[i*k:(i+1)*k], nb)
				m.kdist[i] = nb[k-1].Dist
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	first := shortRow{i: n}
	for _, r := range short {
		if r.i < first.i {
			first = r
		}
	}
	if first.i < n {
		return m.tooFewNeighbours(first.i, first.found)
	}
	return nil
}

// shortRow is a point with fewer than K neighbours at a finite distance.
type shortRow struct{ i, found int }

func (m *Model) tooFewNeighbours(i, found int) error {
	return fmt.Errorf("%w: point %d has %d neighbours at a finite distance, K=%d",
		ErrTooFewPoints, i, found, m.K)
}

// nearestPositive is the copy rule's k-distance of point i: the distance to
// its nearest neighbour at a positive distance.
func (m *Model) nearestPositive(i int, s *Scratch) (float64, error) {
	kd := m.index.nearestPositive(m.Row(i), s)
	if !(kd <= math.MaxFloat64) {
		return 0, fmt.Errorf("%w: point %d has no neighbour at a positive finite distance",
			ErrTooFewPoints, i)
	}
	return kd, nil
}

// ErrStaleFit is returned by Restore when a stored per-point value is
// missing, not positive and finite, or not what fitting the points gives.
var ErrStaleFit = errors.New("lof: stored fit does not match its points")

// Restore rebuilds the model Fit(points, k, d) returned from the per-point
// fit its Fitted handed out, without fitting again: it checks the points
// as Fit does, indexes them, and checks that each array holds one positive
// finite value a point. It then recomputes a fixed sample of points — 0,
// s, 2s, … with s = max(1, n/64) — bit for bit: each one's k-NN and its
// k-distance under the copy rule, its lrd from its neighbours' stored
// k-distances and its train LOF from their stored lrds. A value that does
// not match is ErrStaleFit: a fit by a build whose kernels round
// differently, or points, k or d that changed after the fit. An edit of
// one value outside the sample is not caught. The model keeps copies of
// kdist, lrd and train, as long as they are: a decoder's slices often
// carry spare capacity.
func Restore(points [][]float64, k int, d distance.Distance, kdist, lrd, train []float64) (*Model, error) {
	m, err := newModel(points, k, d)
	if err != nil {
		return nil, err
	}
	for _, a := range []struct {
		name string
		v    []float64
	}{{"k-distances", kdist}, {"lrds", lrd}, {"train LOFs", train}} {
		if len(a.v) != m.n {
			return nil, fmt.Errorf("%w: %d %s for %d points", ErrStaleFit, len(a.v), a.name, m.n)
		}
		for i, x := range a.v {
			if !(x > 0 && x <= math.MaxFloat64) {
				return nil, fmt.Errorf("%w: point %d's %s value %v is not positive and finite",
					ErrStaleFit, i, a.name, x)
			}
		}
	}
	m.kdist, m.lrd, m.train = slices.Clone(kdist), slices.Clone(lrd), slices.Clone(train)
	var s Scratch
	for i := 0; i < m.n; i += max(1, m.n/64) {
		if err := m.checkRow(i, &s); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// checkRow recomputes point i's fit as Fit does and compares it with the
// stored values bit for bit.
func (m *Model) checkRow(i int, s *Scratch) error {
	nb := m.index.KNN(m.Row(i), m.K, i, s)
	if len(nb) < m.K {
		return m.tooFewNeighbours(i, len(nb))
	}
	kd := nb[m.K-1].Dist
	if kd == 0 {
		var err error
		if kd, err = m.nearestPositive(i, s); err != nil {
			return err
		}
	}
	lrd := m.lrdOf(nb)
	for _, c := range []struct {
		name           string
		stored, fitted float64
	}{
		{"k-distance", m.kdist[i], kd},
		{"lrd", m.lrd[i], lrd},
		{"train LOF", m.train[i], m.ratioMean(nb, m.lrd[i])},
	} {
		if math.Float64bits(c.stored) != math.Float64bits(c.fitted) {
			return fmt.Errorf("%w: point %d's %s is %v, its points give %v",
				ErrStaleFit, i, c.name, c.stored, c.fitted)
		}
	}
	return nil
}

// lrdOf computes the local reachability density given a point's K nearest
// neighbours: 1 / mean(reach-dist), where
// reach-dist(p, o) = max(kdist(o), d(p, o)). Every k-distance is positive
// and finite (Fit's copy rule), so the density is too.
func (m *Model) lrdOf(nbrs []Neighbor) float64 {
	var sum float64
	for _, nb := range nbrs {
		rd := nb.Dist
		if kd := m.kdist[nb.Idx]; kd > rd {
			rd = kd
		}
		sum += rd
	}
	return float64(len(nbrs)) / sum
}

func (m *Model) ratioMean(nbrs []Neighbor, lrdP float64) float64 {
	if len(nbrs) == 0 {
		return 1
	}
	var sum float64
	for _, nb := range nbrs {
		sum += m.lrd[nb.Idx] / lrdP
	}
	return sum / float64(len(nbrs))
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

// Fitted returns the per-point fit: each reference point's k-distance,
// local reachability density and train LOF, views of the model's storage
// that callers must not mutate. Restore rebuilds the model from them and
// the points.
func (m *Model) Fitted() (kdist, lrd, train []float64) { return m.kdist, m.lrd, m.train }

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
