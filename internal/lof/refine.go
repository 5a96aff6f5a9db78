package lof

import "math"

// refine returns what selectK would over the exact distances, computing
// an exact distance only where the filter cannot decide a comparison.
// approx[i] is within eps of row i's exact distance. The rows go, in
// selectK's order and under selectK's push test, into a lazy heap whose
// every comparison has the outcome the comparison of exact distances
// would have (see lazyHeap). By induction over its comparisons it makes
// selectK's heap's swaps one for one, so the neighbours, their order among
// equal distances included, are selectK's bit for bit.
//
// Once the heap is full, a row whose lower bound reaches the root's upper
// bound is skipped with one compare: that is the push test's comparison
// decided "no", as gt would decide it.
func (b *BruteIndex) refine(q, approx []float64, eps float64, k, skip int, s *Scratch) []Neighbor {
	if !(eps > 0) { // positive by construction; anything else claims nothing
		eps = math.Inf(1)
	}
	h := s.lazy.reset(b, q, k)
	// The root's upper bound once the heap is full. NaN until then: no
	// comparison with it holds, so no row is skipped.
	cut := math.NaN()
	for i, a := range approx {
		if i == skip || a-eps >= cut {
			continue
		}
		x := lazyNeighbor{idx: i, v: a, r: eps}
		// An unresolved entry keeps finite bounds, so that it is known to
		// have a finite exact distance.
		if !(a-eps >= -math.MaxFloat64 && a+eps <= math.MaxFloat64) {
			h.resolve(&x)
		}
		h.offer(x)
		if len(h.items) == k {
			cut = h.items[0].v + h.items[0].r
		}
	}
	s.filtered += len(approx)
	return h.drainSorted(&s.heap, s.neighborBuf(len(h.items)))
}

// lazyNeighbor is one entry of the lazy heap: reference row idx, whose
// exact distance is v when r == 0, and otherwise lies in [v−r, v+r], v
// being the filter's distance and r its error bound.
type lazyNeighbor struct {
	idx  int
	v, r float64
}

// lazyHeap is selectK's bounded max-heap (neighborHeap) over intervals
// instead of exact distances. A comparison between two entries is decided
// by their intervals when those do not overlap, and otherwise by the exact
// distances of both, which the heap then keeps. Either way it has the
// outcome the comparison of exact distances has. Rounding cannot turn a
// decided outcome around: rounding is monotonic, so fl(v−r) ≤ e ≤ fl(v+r)
// for exact distance e.
type lazyHeap struct {
	items []lazyNeighbor
	k     int
	b     *BruteIndex
	q     []float64
	calls int // exact kernel calls, over every query
}

// reset empties the heap for a query q against b's rows, bounding it at k
// entries and reusing its storage.
func (h *lazyHeap) reset(b *BruteIndex, q []float64, k int) *lazyHeap {
	if cap(h.items) < k {
		h.items = make([]lazyNeighbor, 0, k)
	}
	h.items, h.k, h.b, h.q = h.items[:0], k, b, q
	return h
}

// resolve replaces e's interval with its exact distance and returns it.
func (h *lazyHeap) resolve(e *lazyNeighbor) float64 {
	if e.r > 0 {
		b := h.b
		e.v, e.r = b.dist.F(h.q, b.flat[e.idx*b.dim:(e.idx+1)*b.dim]), 0
		h.calls++
	}
	return e.v
}

// gt reports whether x's exact distance exceeds y's. A NaN bound decides
// nothing, so it resolves.
func (h *lazyHeap) gt(x, y *lazyNeighbor) bool {
	if x.v-x.r > y.v+y.r {
		return true
	}
	if x.v+x.r <= y.v-y.r {
		return false
	}
	return h.resolve(x) > h.resolve(y)
}

// offer is selectK's `if d < h.worst() { h.push(...) }`. The heap never
// holds a +Inf or NaN exact distance, so up and down compare with gt what
// neighborHeap compares with > and >=.
func (h *lazyHeap) offer(x lazyNeighbor) {
	if len(h.items) < h.k {
		// Below +Inf: an unresolved x is, by its finite bounds.
		if !(x.v < math.Inf(1)) {
			return
		}
		h.items = append(h.items, x)
		h.up(len(h.items) - 1)
		return
	}
	if !h.gt(&h.items[0], &x) {
		return
	}
	h.items[0] = x
	h.down(0)
}

func (h *lazyHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.gt(&h.items[i], &h.items[parent]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *lazyHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.gt(&h.items[l], &h.items[largest]) {
			largest = l
		}
		if r < n && h.gt(&h.items[r], &h.items[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// drainSorted resolves the survivors into nh, which then holds selectK's
// heap array, and drains it with neighborHeap's own heapsort.
func (h *lazyHeap) drainSorted(nh *neighborHeap, dst []Neighbor) []Neighbor {
	nh.reset(h.k)
	for i := range h.items {
		nh.items = append(nh.items, Neighbor{Idx: h.items[i].idx, Dist: h.resolve(&h.items[i])})
	}
	h.items = h.items[:0]
	return nh.drainSorted(dst)
}
