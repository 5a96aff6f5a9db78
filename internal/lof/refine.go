package lof

import (
	"math"
	"math/bits"

	"enduratrace/internal/distance"
)

// refine returns what selectK would over the exact distances, computing
// an exact distance only where the filter cannot decide a comparison. It
// runs the filter over the rows in index order: a row read in full has a
// filter distance a within ε of its exact distance. The rows go, in
// selectK's order and under selectK's push test, into a lazy heap whose
// every comparison has the outcome the comparison of exact distances would
// have (see lazyHeap). By induction over its comparisons it makes
// selectK's heap's swaps one for one, so the neighbours, their order among
// equal distances included, are selectK's bit for bit.
//
// Once the heap is full, a row that the filter abandons (its prefix proves
// its exact distance at or above the root's upper bound, see
// distance.FilterQuery.Stop), or whose lower bound reaches that upper
// bound, is skipped: that is the push test's comparison decided "no", as
// gt would decide it.
//
// The rows go through the filter distance.HeadBatch at a time: Heads sums
// the first block of every row of a batch against the stop held when the
// batch starts, and drops the rows it abandons; Rest reads the others on,
// in order, against the current stop. A push later in the batch may move
// the cut, but a dropped row stays a "no": its exact distance is at or
// above the cut it was dropped at, that cut is at or above the root's
// exact distance then, and the root's exact distance, selectK's worst,
// never rises once the heap is full.
//
// The filter runs over the index's distinct rows (see BruteIndex), each
// once a query, in their order of first appearance, which is index order
// too; the batches Heads sums are batches of distinct rows. A row is
// offered in its own turn in index order: a distinct row's first
// appearance with the outcome of its filter, a copy of it with that same
// outcome (see lazyHeap.groups). A copy whose row the filter ruled out is
// a "no": that row's exact distance, and so the copy's, was proven at or
// above the root's exact distance then. A copy of any other row is
// offered with the same interval, which is the one reading it would give
// (same bits, same operations), or with the exact distance once either
// has been resolved. The row skip is not offered, but when it is the
// first appearance of a row with copies, that row is still filtered, for
// its copies.
func (b *BruteIndex) refine(q []float64, k, skip int, s *Scratch) []Neighbor {
	fq := &s.fq
	f := b.filter
	f.Prepare(q, fq)
	eps := fq.Eps
	if !(eps > 0) { // positive by construction; anything else claims nothing
		eps = math.Inf(1)
	}
	h := s.lazy.reset(b, q, k)
	rows := b.n
	skipU := -1 // the distinct row that is skip and has no copy: not filtered
	if skip >= 0 && skip < b.n {
		rows--
		if b.groupOf(skip) < 0 {
			skipU = b.distinct(skip)
		}
	}
	nu := len(b.flat) / b.dim
	// The copies before b.copies[c] have been offered or skipped; the next
	// one, if any, comes just before distinct row at's first appearance.
	c, at := h.offerCopies(0, -1, skip)
	var read int
	for u0 := 0; u0 < nu; u0 += distance.HeadBatch {
		if u0 >= at {
			c, at = h.offerCopies(c, u0, skip)
		}
		m := min(distance.HeadBatch, nu-u0)
		batch := uint16(1<<m - 1)
		if skipU >= u0 && skipU < u0+m {
			batch &^= 1 << (skipU - u0)
		}
		live := f.Heads(fq, u0, m, fq.Stop(h.cut)) & batch
		read += distance.HeadDim * bits.OnesCount16(batch&^live)
		for ; live != 0; live &= live - 1 {
			u := u0 + bits.TrailingZeros16(live)
			if u >= at {
				c, at = h.offerCopies(c, u, skip)
			}
			a, n := f.Rest(fq, u, fq.Stop(h.cut))
			read += n
			if n < b.dim || a-eps >= h.cut {
				continue
			}
			x := lazyNeighbor{idx: u + c, v: a, r: eps} // u's first appearance
			// An unresolved entry keeps finite bounds, so that it is
			// known to have a finite exact distance.
			if !(a-eps >= -math.MaxFloat64 && a+eps <= math.MaxFloat64) {
				h.resolve(&x)
			}
			if b.group != nil && b.group[u] >= 0 {
				h.groups[b.group[u]] = groupState{gen: h.gen, v: x.v, r: x.r}
			}
			if x.idx != skip {
				h.offer(x)
			}
		}
	}
	h.offerCopies(c, nu, skip)
	s.filtered += rows
	s.read += read
	return h.drainSorted(&s.heap, s.neighborBuf(len(h.items)))
}

// offerCopies offers, in index order, the copies from b.copies[c] on that
// come before the first appearance of distinct row u (every one left when
// u is the number of distinct rows), skip excepted. It returns the
// position in b.copies of the next copy, and that copy's at: the copy
// comes before the first appearance of distinct row at (math.MaxInt when
// none is left).
func (h *lazyHeap) offerCopies(c, u, skip int) (next, at int) {
	cs := h.b.copies
	for ; c < len(cs) && int(cs[c].at) <= u; c++ {
		i := int(cs[c].at) + c
		st := &h.groups[cs[c].g]
		if i == skip || st.gen != h.gen || st.v-st.r >= h.cut {
			continue
		}
		h.offer(lazyNeighbor{idx: i, v: st.v, r: st.r})
	}
	if c == len(cs) {
		return c, math.MaxInt
	}
	return c, int(cs[c].at)
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
	// cut is the root's upper bound once the heap is full, NaN until then:
	// no comparison with it holds, so no row is skipped or abandoned.
	cut float64
	// groups holds, per group of identical rows of b (a distinct row with
	// copies), what this query knows of them; gen numbers the queries, so
	// that an entry stamped with an older one is stale: the filter ruled
	// the group's row out.
	groups []groupState
	gen    uint64
}

// groupState is what one query knows of a group of identical rows once
// their first row has been offered to the lazy heap: the interval
// [v−r, v+r] that holds their exact distance, which is v when r == 0.
type groupState struct {
	gen  uint64
	v, r float64
}

// reset empties the heap for a query q against b's rows, bounding it at k
// entries, and starts a new query generation, reusing its storage.
func (h *lazyHeap) reset(b *BruteIndex, q []float64, k int) *lazyHeap {
	if cap(h.items) < k {
		h.items = make([]lazyNeighbor, 0, k)
	}
	if len(h.groups) < b.groups {
		h.groups = make([]groupState, b.groups)
	}
	h.items, h.k, h.b, h.q, h.cut = h.items[:0], k, b, q, math.NaN()
	h.gen++
	return h
}

// resolve replaces e's interval with its exact distance and returns it.
// The distance is shared with e's identical rows: taken from their group
// if one of them has been resolved in this query, stored there otherwise.
func (h *lazyHeap) resolve(e *lazyNeighbor) float64 {
	if e.r > 0 {
		b := h.b
		var st *groupState
		if g := b.groupOf(e.idx); g >= 0 && h.groups[g].gen == h.gen {
			st = &h.groups[g]
		}
		if st != nil && !(st.r > 0) {
			e.v, e.r = st.v, 0
			return e.v
		}
		e.v, e.r = b.dist.F(h.q, b.rowOf(e.idx)), 0
		h.calls++
		if st != nil {
			st.v, st.r = e.v, 0
		}
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

// offer is selectK's `if d < h.worst() { h.push(...) }`, and then brings
// cut up to date: a comparison may have resolved the root. The heap never
// holds a +Inf or NaN exact distance, so up and down compare with gt what
// neighborHeap compares with > and >=.
func (h *lazyHeap) offer(x lazyNeighbor) {
	switch {
	case len(h.items) < h.k:
		// Below +Inf: an unresolved x is, by its finite bounds.
		if !(x.v < math.Inf(1)) {
			return
		}
		h.items = append(h.items, x)
		h.up(len(h.items) - 1)
	case h.gt(&h.items[0], &x):
		h.items[0] = x
		h.down(0)
	}
	if len(h.items) == h.k {
		h.cut = h.items[0].v + h.items[0].r
	}
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
