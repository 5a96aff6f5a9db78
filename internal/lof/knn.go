package lof

import (
	"fmt"
	"math"
	"slices"

	"enduratrace/internal/distance"
)

// Neighbor is one k-nearest-neighbour query result.
type Neighbor struct {
	Idx  int     // index of the neighbour in the fitted point set
	Dist float64 // distance from the query to the neighbour
}

// Scratch holds the reusable buffers of one k-NN/scoring goroutine: the
// row-kernel distance output of a caller's own distance, the bounded
// selection heap, the sorted neighbour result, and the KL-family path's
// prepared filter query and lazy heap. Buffers grow on first use and are
// reused afterwards, so steady-state queries allocate nothing. A Scratch
// must not be shared between goroutines.
type Scratch struct {
	dists []float64
	heap  neighborHeap
	out   []Neighbor
	fq    distance.FilterQuery
	lazy  lazyHeap
	// filtered and read count the rows the exact KL-family path ran
	// through its filter and the components it read of them; the lazy
	// heap counts its exact kernel calls.
	filtered, read int
}

// FilterStats returns how many reference rows the exact KL-family k-NN
// has run through its float32-log filter on this scratch, how many exact
// kernel calls its refine made — one for each row it had to resolve, that
// is every neighbour it returned and every other row whose filter
// interval could not decide a heap comparison (see refine) — and how many
// row components the filter read, which is below rows × dim by what it
// abandoned. All three stay zero on every other path.
func (s *Scratch) FilterStats() (filtered, refined, read int) {
	return s.filtered, s.lazy.calls, s.read
}

func (s *Scratch) floats(n int) []float64 {
	if cap(s.dists) < n {
		s.dists = make([]float64, n)
	}
	s.dists = s.dists[:n]
	return s.dists
}

func (s *Scratch) neighborBuf(n int) []Neighbor {
	if cap(s.out) < n {
		s.out = make([]Neighbor, n)
	}
	s.out = s.out[:n]
	return s.out
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

// BruteIndex answers k-nearest-neighbour queries over a fixed point set by
// a single row-kernel pass followed by bounded-heap selection. It accepts
// any dissimilarity: the catalogue's non-metric KL family, and a caller's
// own Distance, which it scores by the full exact scan the tests take as
// the reference.
//
// It stores each distinct row once, as one flat row-major matrix: a row
// that is a bitwise copy of an earlier one shares that row's storage, and
// a query reads each distinct row once. The full scan for a caller's own
// Distance scores the distinct rows and hands each copy its row's
// distance.
//
// For the KL family the pass is the float32-log filter over the distinct
// rows, run inside the selection (symkl's first blocks a batch of rows at
// a time, every other row kernel one row at a time), and the exact
// distance runs only where the filter's error bound cannot decide a heap
// comparison (see refine); the result is bit-identical to the full exact
// scan.
type BruteIndex struct {
	flat   []float64 // the distinct rows, in order of first appearance
	dim    int
	n      int // indexed rows, copies included
	dist   distance.Distance
	rows   distance.RowsFunc
	filter *distance.FilterRows // over flat; nil for a caller's own distance
	// uid[i] is row i's row of flat, and group[u] numbers the rows of flat
	// that have copies, from 0 to groups−1, −1 for the others. copies
	// lists the rows that are copies of an earlier row, in index order.
	// All three are nil when no row repeats (uid[i] would be i).
	uid, group []int32
	copies     []copyRow
	groups     int
}

// copyRow is a row that is a copy of an earlier one: the c-th copy in
// index order is row at+c, at being the number of distinct rows whose
// first appearance comes before it, and g is its group.
type copyRow struct{ at, g int32 }

// NewBruteIndex builds a brute-force index over the flat row-major matrix
// (n = len(flat)/dim rows). The index keeps its own matrix of the distinct
// rows; flat is not retained.
func NewBruteIndex(flat []float64, dim int, d distance.Distance) *BruteIndex {
	if dim <= 0 || len(flat)%dim != 0 {
		panic(fmt.Sprintf("lof: matrix length %d not a multiple of dim %d", len(flat), dim))
	}
	return newBruteIndex(len(flat)/dim, dim, func(i int) []float64 { return flat[i*dim : (i+1)*dim] }, d)
}

// newBruteIndex indexes the n rows row(i) of dimension dim.
func newBruteIndex(n, dim int, row func(int) []float64, d distance.Distance) *BruteIndex {
	b := &BruteIndex{dim: dim, n: n, dist: d, rows: distance.RowsOf(d)}
	var nu int
	b.uid, nu = distinctRows(n, row)
	flat := make([]float64, 0, nu*dim)
	for i := 0; i < n; i++ {
		if b.uid == nil || int(b.uid[i])*dim == len(flat) { // a first appearance
			flat = append(flat, row(i)...)
		}
	}
	b.flat = flat
	if b.uid != nil {
		b.group = make([]int32, len(flat)/dim)
		for u := range b.group {
			b.group[u] = -1
		}
		var next int32
		for _, u := range b.uid {
			if u == next {
				next++
				continue
			}
			if b.group[u] < 0 {
				b.group[u] = int32(b.groups)
				b.groups++
			}
			b.copies = append(b.copies, copyRow{at: next, g: b.group[u]})
		}
	}
	if distance.FastRowsFor(d.Name) {
		b.filter = distance.NewFilterRows(flat, dim, d.Name)
	}
	return b
}

// distinctRows numbers the distinct rows of an n-row matrix, row(i) being
// row i, in order of first appearance: uid[i] is row i's number, which a
// bitwise copy of an earlier row shares with it. Rows are matched by a
// hash of their bits, then compared; a row whose hash collides with a
// different row's is numbered as a distinct row, which costs it only its
// share of the saving. uid is nil when no row repeats; nu is the number
// of distinct rows.
func distinctRows(n int, row func(int) []float64) (uid []int32, nu int) {
	uid = make([]int32, n)
	seen := make(map[uint64]int32, n) // row hash → lowest row with it
	var next int32
	for i := range uid {
		r := row(i)
		h := uint64(14695981039346656037) // FNV-1a over the row's 64-bit words
		for _, x := range r {
			h = (h ^ math.Float64bits(x)) * 1099511628211
		}
		first, ok := seen[h]
		if ok && slices.EqualFunc(r, row(int(first)), func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			uid[i] = uid[first]
			continue
		}
		if !ok {
			seen[h] = int32(i)
		}
		uid[i] = next
		next++
	}
	if int(next) == n {
		return nil, n
	}
	return uid, int(next)
}

// distinct returns the row of flat that holds row i.
func (b *BruteIndex) distinct(i int) int {
	if b.uid == nil {
		return i
	}
	return int(b.uid[i])
}

// rowOf returns row i, a view of the index's storage.
func (b *BruteIndex) rowOf(i int) []float64 {
	u := b.distinct(i)
	return b.flat[u*b.dim : (u+1)*b.dim]
}

// groupOf returns the group of row i's bitwise-identical rows, −1 when
// it has none.
func (b *BruteIndex) groupOf(i int) int32 {
	if b.group == nil {
		return -1
	}
	return b.group[b.uid[i]]
}

// nearestPositive returns the least positive distance from q to an
// indexed row, +Inf when there is none.
func (b *BruteIndex) nearestPositive(q []float64, s *Scratch) float64 {
	dists := s.floats(len(b.flat) / b.dim)
	b.rows(q, b.flat, b.dim, dists)
	best := math.Inf(1)
	for _, d := range dists {
		if d > 0 && d < best {
			best = d
		}
	}
	return best
}

// EnableFastKernels does nothing: every index scores exactly. It is kept
// only because the wire benchmark (bench/) still calls it, and goes when
// that benchmark next changes.
func (b *BruteIndex) EnableFastKernels() {}

// Len returns the number of indexed points.
func (b *BruteIndex) Len() int { return b.n }

// KNN returns the k nearest points to q in ascending distance order (fewer
// if the set is smaller than k). When skip >= 0, the point with that index
// is excluded — used when querying a training point against its own set.
// The result is backed by s and only valid until s's next query.
func (b *BruteIndex) KNN(q []float64, k, skip int, s *Scratch) []Neighbor {
	if k <= 0 {
		return nil
	}
	if b.filter != nil {
		return b.refine(q, k, skip, s)
	}
	dists := s.floats(b.n)
	b.rows(q, b.flat, b.dim, dists[:len(b.flat)/b.dim])
	if b.uid != nil {
		// uid[i] ≤ i: walking down, row uid[i]'s distance is still in place.
		for i := b.n - 1; i >= 0; i-- {
			dists[i] = dists[b.uid[i]]
		}
	}
	return selectK(dists, k, skip, s)
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
