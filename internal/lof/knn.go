package lof

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"enduratrace/internal/distance"
)

// Neighbor is one k-nearest-neighbour query result.
type Neighbor struct {
	Idx  int     // index of the neighbour in the fitted point set
	Dist float64 // distance from the query to the neighbour
}

// Scratch holds the reusable buffers of one k-NN/scoring goroutine: the
// row-kernel distance output, the bounded selection heap, the sorted
// neighbour result, and the query-log buffer of the KL-family log-table
// paths. Buffers grow on first use and are reused afterwards, so
// steady-state queries allocate nothing. A Scratch must not be shared
// between goroutines.
type Scratch struct {
	dists []float64
	heap  neighborHeap
	out   []Neighbor
	qlogs []float64
	// The exact KL-family path: the bounded heap over the filter's
	// approximate distances, and how many rows it filtered and how many of
	// those it had to refine with the exact kernel.
	filt              neighborHeap
	one               [1]float64 // the exact kernel's output for one refined row
	filtered, refined int
	// Batch-scoring buffers of the FastKernels path: the flattened query
	// block, the nq×n distance matrix, and the per-query negative
	// entropies of the fast JSD kernel.
	qflat  []float64
	bdists []float64
	qents  []float64
}

// FilterStats returns how many reference rows the exact KL-family k-NN
// has run through its float32-log filter on this scratch, and how many of
// those the filter could not rule out and the exact kernel refined. Both
// stay zero on every other path.
func (s *Scratch) FilterStats() (filtered, refined int) { return s.filtered, s.refined }

func (s *Scratch) floats(n int) []float64 {
	if cap(s.dists) < n {
		s.dists = make([]float64, n)
	}
	s.dists = s.dists[:n]
	return s.dists
}

func (s *Scratch) logBuf(n int) []float64 {
	if cap(s.qlogs) < n {
		s.qlogs = make([]float64, n)
	}
	s.qlogs = s.qlogs[:n]
	return s.qlogs
}

func (s *Scratch) neighborBuf(n int) []Neighbor {
	if cap(s.out) < n {
		s.out = make([]Neighbor, n)
	}
	s.out = s.out[:n]
	return s.out
}

func (s *Scratch) flatBuf(n int) []float64 {
	if cap(s.qflat) < n {
		s.qflat = make([]float64, n)
	}
	s.qflat = s.qflat[:n]
	return s.qflat
}

func (s *Scratch) batchDists(n int) []float64 {
	if cap(s.bdists) < n {
		s.bdists = make([]float64, n)
	}
	s.bdists = s.bdists[:n]
	return s.bdists
}

func (s *Scratch) entBuf(n int) []float64 {
	if cap(s.qents) < n {
		s.qents = make([]float64, n)
	}
	s.qents = s.qents[:n]
	return s.qents
}

// Index answers k-nearest-neighbour queries over a fixed point set stored
// as a flat row-major matrix.
//
// KNN returns the k nearest points to q in ascending distance order (fewer
// if the set is smaller than k). When skip >= 0, the point with that index
// is excluded — used when querying a training point against its own set.
// The result is backed by s and only valid until s's next query.
type Index interface {
	KNN(q []float64, k, skip int, s *Scratch) []Neighbor
	Len() int
}

// neighborHeap is a bounded max-heap on Dist used to keep the k best
// candidates during a scan.
type neighborHeap struct {
	items []Neighbor
	cap   int
}

// reset empties the heap and bounds it at k items, reusing its storage.
func (h *neighborHeap) reset(k int) *neighborHeap {
	if cap(h.items) < k {
		h.items = make([]Neighbor, 0, k)
	}
	h.items = h.items[:0]
	h.cap = k
	return h
}

func (h *neighborHeap) worst() float64 {
	if len(h.items) < h.cap {
		return math.Inf(1)
	}
	return h.items[0].Dist
}

func (h *neighborHeap) push(n Neighbor) {
	if len(h.items) < h.cap {
		h.items = append(h.items, n)
		h.up(len(h.items) - 1)
		return
	}
	if n.Dist >= h.items[0].Dist {
		return
	}
	h.items[0] = n
	h.down(0)
}

func (h *neighborHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Dist >= h.items[i].Dist {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *neighborHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.items[l].Dist > h.items[largest].Dist {
			largest = l
		}
		if r < n && h.items[r].Dist > h.items[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// drainSorted empties the heap into dst in ascending distance order using
// in-place heapsort on the max-heap (no allocation). The heap is left
// empty; dst must have length len(h.items).
func (h *neighborHeap) drainSorted(dst []Neighbor) []Neighbor {
	items := h.items
	for n := len(items); n > 1; n-- {
		items[0], items[n-1] = items[n-1], items[0]
		h.items = items[:n-1]
		h.down(0)
	}
	h.items = items
	copy(dst, items)
	h.items = items[:0]
	return dst
}

// BruteIndex answers k-NN queries by a single row-kernel pass over the
// flat reference matrix followed by bounded-heap selection. It accepts any
// dissimilarity (including the non-metric KL family), which makes it the
// default index for pmf points.
//
// For the KL family the pass is the float32-log filter and the exact
// kernel runs only on the rows the filter cannot rule out (see refine);
// the result is bit-identical to the full exact scan.
type BruteIndex struct {
	flat   []float64
	dim    int
	n      int
	rows   distance.RowsFunc
	filter *distance.FilterRows // exact KL-family path; nil for other distances and under fast kernels
	logs   *distance.LogRows    // non-nil switches to the approximate fast KL-family path
	name   string
}

// NewBruteIndex builds a brute-force index over the flat row-major matrix
// (n = len(flat)/dim rows). The slice is retained, not copied.
func NewBruteIndex(flat []float64, dim int, d distance.Distance) *BruteIndex {
	if dim <= 0 || len(flat)%dim != 0 {
		panic(fmt.Sprintf("lof: matrix length %d not a multiple of dim %d", len(flat), dim))
	}
	b := &BruteIndex{
		flat: flat,
		dim:  dim,
		n:    len(flat) / dim,
		rows: distance.RowsOf(d),
		name: d.Name,
	}
	if distance.FastRowsFor(d.Name) {
		b.filter = distance.NewFilterRows(flat, dim, d.Name)
	}
	return b
}

// EnableFastKernels precomputes the per-row log table and switches the
// index to the fast (approximate, see distance.LogRows) KL-family row
// kernels, dropping the exact path's filter table. It is a no-op for
// distances outside the KL family.
func (b *BruteIndex) EnableFastKernels() {
	if distance.FastRowsFor(b.name) {
		b.logs = distance.NewLogRows(b.flat, b.dim)
		b.filter = nil
	}
}

// Len implements Index.
func (b *BruteIndex) Len() int { return b.n }

// KNN implements Index.
func (b *BruteIndex) KNN(q []float64, k, skip int, s *Scratch) []Neighbor {
	if k <= 0 {
		return nil
	}
	dists := s.floats(b.n)
	if b.filter != nil {
		return b.refine(q, dists, b.filter.Rows(q, s.logBuf(b.dim), dists), k, skip, s)
	}
	b.fillDists(q, s, dists)
	return selectK(dists, k, skip, s)
}

// refine returns what selectK would over the exact distances, computing
// the exact distance only where it can matter. approx[i] is within eps of
// row i's exact distance. selectK pushes row i iff its exact distance is
// below the k-th smallest among the rows before it; that k-th smallest is
// at most T+eps, T being the k-th smallest approximate distance among the
// same rows, so every row selectK pushes has approx[i] < T+2·eps. Walking
// the rows in the same order and offering exactly those to the exact heap
// under selectK's own test reproduces its pushes one for one — ties at the
// k-th distance and the heap-history order of equal distances included.
func (b *BruteIndex) refine(q, approx []float64, eps float64, k, skip int, s *Scratch) []Neighbor {
	h, ha := s.heap.reset(k), s.filt.reset(k)
	for i, a := range approx {
		if i == skip {
			continue
		}
		// Negated so that a NaN on either side refines instead of pruning.
		if !(a > ha.worst()+2*eps) {
			s.refined++
			b.rows(q, b.flat[i*b.dim:(i+1)*b.dim], b.dim, s.one[:])
			if e := s.one[0]; e < h.worst() {
				h.push(Neighbor{Idx: i, Dist: e})
			}
		}
		if a < ha.worst() {
			ha.push(Neighbor{Dist: a})
		}
	}
	s.filtered += len(approx)
	return h.drainSorted(s.neighborBuf(len(h.items)))
}

// fillDists writes the distance from q to every reference row into dists
// (length b.n), through the fast log-table kernels when enabled.
func (b *BruteIndex) fillDists(q []float64, s *Scratch, dists []float64) {
	if b.logs != nil {
		switch b.name {
		case "symkl":
			qlogs := s.logBuf(b.dim)
			distance.QueryLogs(q, qlogs)
			b.logs.SymKLRows(q, qlogs, dists)
		case "kl":
			qlogs := s.logBuf(b.dim)
			distance.QueryLogs(q, qlogs)
			b.logs.KLRows(q, qlogs, dists)
		case "jsd":
			b.logs.JSDRows(q, distance.QueryNegEntropy(q), dists)
		default:
			panic(fmt.Sprintf("lof: fast kernels enabled for unsupported distance %q", b.name))
		}
		return
	}
	b.rows(q, b.flat, b.dim, dists)
}

// fastDistsBatch computes the full nq×b.n fast-kernel distance matrix
// between the flattened query block and the reference rows in one batched
// sweep, so each matrix row is loaded once per batch instead of once per
// query. Query k's distances land in out[k*b.n : (k+1)*b.n], bit-for-bit
// equal to fillDists on that query alone.
func (b *BruteIndex) fastDistsBatch(qflat []float64, nq int, s *Scratch, out []float64) {
	switch b.name {
	case "symkl":
		qlogs := s.logBuf(nq * b.dim)
		distance.QueryLogs(qflat, qlogs)
		b.logs.SymKLRowsBatch(qflat, qlogs, nq, out)
	case "kl":
		qlogs := s.logBuf(nq * b.dim)
		distance.QueryLogs(qflat, qlogs)
		b.logs.KLRowsBatch(qflat, qlogs, nq, out)
	case "jsd":
		qents := s.entBuf(nq)
		for k := 0; k < nq; k++ {
			qents[k] = distance.QueryNegEntropy(qflat[k*b.dim : (k+1)*b.dim])
		}
		b.logs.JSDRowsBatch(qflat, qents, nq, out)
	default:
		panic(fmt.Sprintf("lof: fast kernels enabled for unsupported distance %q", b.name))
	}
}

// selectK runs bounded-heap selection over a filled distance row,
// returning the k nearest in ascending order (excluding index skip when
// skip >= 0). The result is backed by s.
func selectK(dists []float64, k, skip int, s *Scratch) []Neighbor {
	h := s.heap.reset(k)
	for i, d := range dists {
		if i == skip {
			continue
		}
		if d < h.worst() {
			h.push(Neighbor{Idx: i, Dist: d})
		}
	}
	return h.drainSorted(s.neighborBuf(len(h.items)))
}

// VPTree is a vantage-point tree supporting k-NN queries under a metric
// distance. Build is O(n log n) expected; queries prune using the triangle
// inequality. Using it with a non-metric dissimilarity silently returns
// wrong neighbours, so NewVPTree refuses non-metric distances.
type VPTree struct {
	flat []float64
	dim  int
	n    int
	dist distance.Func
	root *vpNode
}

type vpNode struct {
	idx     int     // vantage point index into the matrix
	radius  float64 // median distance from vantage to its subtree points
	inside  *vpNode // points with d <= radius
	outside *vpNode
}

// NewVPTree builds a VP-tree over the flat row-major matrix. d must be a
// metric (d.Metric). seed controls vantage-point selection; any fixed
// value gives a deterministic tree.
func NewVPTree(flat []float64, dim int, d distance.Distance, seed int64) (*VPTree, error) {
	if !d.Metric {
		return nil, fmt.Errorf("lof: VP-tree requires a metric distance, %q is not", d.Name)
	}
	if dim <= 0 || len(flat)%dim != 0 {
		return nil, fmt.Errorf("lof: matrix length %d not a multiple of dim %d", len(flat), dim)
	}
	t := &VPTree{flat: flat, dim: dim, n: len(flat) / dim, dist: d.F}
	idxs := make([]int, t.n)
	for i := range idxs {
		idxs[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	t.root = t.build(idxs, rng)
	return t, nil
}

func (t *VPTree) row(i int) []float64 {
	return t.flat[i*t.dim : (i+1)*t.dim]
}

func (t *VPTree) build(idxs []int, rng *rand.Rand) *vpNode {
	if len(idxs) == 0 {
		return nil
	}
	// Pick a random vantage point and move it to the front.
	vi := rng.Intn(len(idxs))
	idxs[0], idxs[vi] = idxs[vi], idxs[0]
	node := &vpNode{idx: idxs[0]}
	rest := idxs[1:]
	if len(rest) == 0 {
		return node
	}
	vp := t.row(node.idx)
	dists := make([]float64, len(rest))
	for i, id := range rest {
		dists[i] = t.dist(vp, t.row(id))
	}
	// Partition around the median distance.
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	mid := len(order) / 2
	node.radius = dists[order[mid]]
	inside := make([]int, 0, mid+1)
	outside := make([]int, 0, len(order)-mid)
	for _, o := range order {
		if dists[o] <= node.radius {
			inside = append(inside, rest[o])
		} else {
			outside = append(outside, rest[o])
		}
	}
	// Degenerate case: all points at the same distance end up inside; split
	// arbitrarily to guarantee progress.
	if len(outside) == 0 && len(inside) > 1 {
		half := len(inside) / 2
		outside = inside[half:]
		inside = inside[:half]
	}
	node.inside = t.build(inside, rng)
	node.outside = t.build(outside, rng)
	return node
}

// Len implements Index.
func (t *VPTree) Len() int { return t.n }

// KNN implements Index.
func (t *VPTree) KNN(q []float64, k, skip int, s *Scratch) []Neighbor {
	if k <= 0 {
		return nil
	}
	h := s.heap.reset(k)
	t.search(t.root, q, skip, h)
	return h.drainSorted(s.neighborBuf(len(h.items)))
}

func (t *VPTree) search(n *vpNode, q []float64, skip int, h *neighborHeap) {
	if n == nil {
		return
	}
	d := t.dist(q, t.row(n.idx))
	if n.idx != skip && d < h.worst() {
		h.push(Neighbor{Idx: n.idx, Dist: d})
	}
	if d <= n.radius {
		t.search(n.inside, q, skip, h)
		if d+h.worst() >= n.radius {
			t.search(n.outside, q, skip, h)
		}
	} else {
		t.search(n.outside, q, skip, h)
		if d-h.worst() <= n.radius {
			t.search(n.inside, q, skip, h)
		}
	}
}
