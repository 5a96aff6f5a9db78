package distance

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// This file holds the row forms of the catalogue distances: one query
// vector against every row of a flat row-major reference matrix, the shape
// of the LOF hot path.
//
//   - RowsOf is the exact form: a loop over the scalar Func, so the two
//     cannot disagree. It is the reference the log-table forms are tested
//     against and the only row form of a caller's own Distance.
//   - LogRows precomputes per-element logarithms for the KL family (kl,
//     symkl, and jsd, which the catalogue no longer holds), removing every
//     (jsd: half the) math.Log calls from the per-row inner loop. It is
//     approximate in the last ulps (log(p/q) != log p - log q in floating
//     point), and no program scores through it: it is kept only for the
//     wire benchmark (bench/), see LogRows.
//   - FilterRows runs the same kernels over float32 logs, one row at a
//     time, with a proven bound on their error and, for symkl, a prefix
//     test that abandons a row once it cannot matter — the filter half of
//     the exact k-NN's filter-and-refine (lof.BruteIndex). Its symkl
//     rows are read in the column order that separates rows fastest,
//     their first blocks HeadBatch rows at a time (Heads).

// RowsFunc computes the distance from q to each row of the flat row-major
// matrix rows (len(rows) must be a multiple of dim) and writes the i-th
// distance into out[i]. out must have length len(rows)/dim.
type RowsFunc func(q, rows []float64, dim int, out []float64)

// RowsOf returns the exact row form of d: out[i] = d.F(q, row_i).
func RowsOf(d Distance) RowsFunc {
	return func(q, rows []float64, dim int, out []float64) {
		checkRows(q, rows, dim, out)
		for i := range out {
			out[i] = d.F(q, rows[i*dim:(i+1)*dim])
		}
	}
}

func checkRows(q, rows []float64, dim int, out []float64) {
	if len(q) != dim {
		panic(fmt.Sprintf("distance: query dimension %d != row dimension %d", len(q), dim))
	}
	if dim <= 0 || len(rows)%dim != 0 {
		panic(fmt.Sprintf("distance: matrix length %d not a multiple of dim %d", len(rows), dim))
	}
	if len(out) != len(rows)/dim {
		panic(fmt.Sprintf("distance: out length %d != row count %d", len(out), len(rows)/dim))
	}
}

// logTable precomputes per-element floored logarithms of a reference
// matrix, enabling KL-family row kernels with no math.Log call in the
// per-row inner loop. With L[i] = log(max(x_i, eps)):
//
//	KL(q ‖ r)     ≈ Σ_{q_i>0} q_i (Lq_i − Lr_i)
//	symKL(q, r)   ≈ KL(q ‖ r) + KL(r ‖ q)
//	JSD(q, r)     ≈ ½Σ q_i Lq_i + ½Σ r_i Lr_i − Σ m_i log m_i,  m = (q+r)/2
//
// The kl/symkl inner loops are branch-free multiply-adds over the log
// tables (a zero component contributes an exact ±0, which IEEE addition
// ignores, so eliminating the zero-skip branches changes no result bit);
// the jsd form halves the logs per element by precomputing both negentropy
// halves. The results differ from the scalar kernels in the last ulps (and
// for components in (0, eps), which smoothed pmfs never produce).
//
// T is the storage type of the logs, so the kernel loops have one source:
// float64 in LogRows, float32 in FilterRows. FilterRows reads symkl rows
// in its own column order, through its own kernel (FilterRows.symKLFrom).
type logTable[T float32 | float64] struct {
	dim    int
	rows   []float64 // the reference matrix, retained
	logs   []T       // log(max(rows[i], eps)), elementwise
	negent []float64 // LogRows only, for jsd: per row i, Σ_j row_ij · log(max(row_ij, eps))
}

// LogRows is the float64 log table of the retired approximate scoring
// mode. Every model scores exactly, through FilterRows; LogRows, NewLogRows
// and QueryNegEntropy are kept only because the wire benchmark (bench/)
// still compiles against them, and go when that benchmark next changes.
type LogRows = logTable[float64]

// NewLogRows builds the log table over a flat row-major matrix. The matrix
// is retained, not copied; it must not be mutated afterwards. Kept for the
// wire benchmark only, see LogRows.
func NewLogRows(rows []float64, dim int) *LogRows {
	return newLogTable[float64](rows, dim, true)
}

func newLogTable[T float32 | float64](rows []float64, dim int, negent bool) *logTable[T] {
	if dim <= 0 || len(rows)%dim != 0 {
		panic(fmt.Sprintf("distance: matrix length %d not a multiple of dim %d", len(rows), dim))
	}
	t := &logTable[T]{dim: dim, rows: rows, logs: make([]T, len(rows))}
	if negent {
		t.negent = make([]float64, len(rows)/dim)
	}
	for i := 0; i < len(rows); i += dim {
		var s float64
		for j, x := range rows[i : i+dim] {
			lx := x
			if lx < eps {
				lx = eps
			}
			l := math.Log(lx)
			t.logs[i+j] = T(l)
			s += x * l
		}
		if negent {
			t.negent[i/dim] = s
		}
	}
	return t
}

// Len returns the number of rows in the table.
func (t *logTable[T]) Len() int { return len(t.rows) / t.dim }

// Dim returns the row dimensionality.
func (t *logTable[T]) Dim() int { return t.dim }

// QueryLogs fills qlogs[i] = log(max(q[i], eps)) — the per-query half of
// the precomputation, done once per query instead of once per row.
func QueryLogs(q, qlogs []float64) {
	if len(q) != len(qlogs) {
		panic(fmt.Sprintf("distance: query length %d != log buffer %d", len(q), len(qlogs)))
	}
	for i, x := range q {
		if x < eps {
			x = eps
		}
		qlogs[i] = math.Log(x)
	}
}

// KLRows writes out[i] ≈ KL(q ‖ row_i) using the precomputed logs. qlogs
// must come from QueryLogs(q, ...).
func (t *logTable[T]) KLRows(q, qlogs, out []float64) {
	checkRows(q, t.rows, t.dim, out)
	for i := range out {
		out[i] = t.klRow(q, qlogs, i)
	}
}

// klRow is KLRows' value for row i. The inner loop is a branch-free
// multiply-add: a zero q component contributes pj·diff = ±0, which leaves
// every IEEE partial sum unchanged, so skipping the old pj > 0 test is
// value-identical and lets the loop pipeline.
func (t *logTable[T]) klRow(q, qlogs []float64, i int) float64 {
	logs := t.logs[i*t.dim : (i+1)*t.dim]
	var d float64
	for j, pj := range q {
		d += pj * (qlogs[j] - float64(logs[j]))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// SymKLRows writes out[i] ≈ symKL(q, row_i) using the precomputed logs;
// both KL directions are clamped at zero separately, matching the scalar
// kernel's convention. qlogs must come from QueryLogs(q, ...).
func (t *logTable[T]) SymKLRows(q, qlogs, out []float64) {
	checkRows(q, t.rows, t.dim, out)
	for i := range out {
		out[i], _ = t.symKLRow(q, qlogs, i, math.NaN())
	}
}

// symKLRow is SymKLRows' value for row i, unless it abandons the row:
// after every 4 components, while components remain unread, it stops once
// the sum of its two accumulators reaches stop, and returns that prefix
// sum. read is the number of components it read, so read < dim exactly
// when it abandoned. A NaN stop abandons nothing. Branch-free like klRow
// in between: zero components add exact ±0 to either accumulator, and the
// checks leave the accumulators, so the value, untouched.
func (t *logTable[T]) symKLRow(q, qlogs []float64, i int, stop float64) (d float64, read int) {
	dim := t.dim
	row := t.rows[i*dim : (i+1)*dim]
	logs := t.logs[i*dim : (i+1)*dim]
	var fwd, rev float64
	j := 0
	for ; j+4 < dim; j += 4 {
		q4, ql4, r4, l4 := q[j:j+4:j+4], qlogs[j:j+4:j+4], row[j:j+4:j+4], logs[j:j+4:j+4]
		diff := ql4[0] - float64(l4[0])
		fwd += q4[0] * diff
		rev -= r4[0] * diff
		diff = ql4[1] - float64(l4[1])
		fwd += q4[1] * diff
		rev -= r4[1] * diff
		diff = ql4[2] - float64(l4[2])
		fwd += q4[2] * diff
		rev -= r4[2] * diff
		diff = ql4[3] - float64(l4[3])
		fwd += q4[3] * diff
		rev -= r4[3] * diff
		if fwd+rev >= stop {
			return fwd + rev, j + 4
		}
	}
	for ; j < dim; j++ {
		diff := qlogs[j] - float64(logs[j])
		fwd += q[j] * diff
		rev -= row[j] * diff
	}
	if fwd < 0 {
		fwd = 0
	}
	if rev < 0 {
		rev = 0
	}
	return fwd + rev, dim
}

// QueryNegEntropy returns Σ_j q_j · log(max(q_j, eps)) — the per-query
// negentropy half of LogRows' JSD decomposition, computed once per query
// instead of once per row. Kept for the wire benchmark only, see LogRows.
func QueryNegEntropy(q []float64) float64 {
	var s float64
	for _, x := range q {
		lx := x
		if lx < eps {
			lx = eps
		}
		s += x * math.Log(lx)
	}
	return s
}

// JSDRows writes out[i] ≈ JSD(q, row_i) via the entropy decomposition
//
//	JSD(p, r) = ½Σ p_j log p_j + ½Σ r_j log r_j − Σ m_j log m_j
//
// with m = (p+r)/2: the per-row and per-query negentropy halves come from
// the precomputed tables, so only the mixture term costs a log per element
// — half the logs of the exact kernel. qent must come from
// QueryNegEntropy(q). Accurate to the last ulps on smoothed pmfs; an
// identical query and row give an exact 0. Kept for the wire benchmark
// only, see LogRows.
func (t *logTable[T]) JSDRows(q []float64, qent float64, out []float64) {
	checkRows(q, t.rows, t.dim, out)
	for i := range out {
		row := t.rows[i*t.dim : (i+1)*t.dim]
		var ment float64
		for j, pj := range q {
			m := 0.5 * (pj + row[j])
			lm := m
			if lm < eps {
				lm = eps
			}
			ment += m * math.Log(lm)
		}
		d := 0.5*qent + 0.5*t.negent[i] - ment
		if d < 0 {
			d = 0
		}
		out[i] = d
	}
}

// FastRowsFor reports whether the log-table kernels (FilterRows, and the
// bench-only LogRows) apply to the named distance: true for "kl" and
// "symkl", whose inner loops they rid of every log, and false for a
// caller's own Distance.
func FastRowsFor(name string) bool {
	return name == "kl" || name == "symkl"
}

// FilterRows is the filter half of the exact k-NN's filter-and-refine: the
// logTable kernels over float32 logs, half a LogRows, small enough to keep
// beside every model, plus what Prepare needs to bound their error against
// the exact kernels. The bound is derived in DESIGN.md, "Exact k-NN
// through a float32 log filter".
type FilterRows struct {
	name string
	// t holds the float32 logs; for symkl their columns are in filter
	// order: column p of a row's logs is the log of its component order[p].
	t *logTable[float32]
	// order is symkl's filter column order (see filterOrder): the
	// identity at dim ≤ HeadDim, nil for kl.
	order []int32
	heads []headRow // symkl with dim > HeadDim: every row's first block, in filter order; nil otherwise
	// relErr is the rounding error of one distance relative to
	// (maxLog+1)·(Σq + Σrow): the float64 operations of both kernels,
	// plus 2⁻²⁴ for the float32 logs.
	relErr float64
	maxLog float64 // max |log(max(x, eps))| over the matrix
	mass   float64 // max_i Σ_j row_ij; +Inf when an element is outside the proof's domain
}

// filterLo and filterHi delimit the component magnitudes the error proof
// covers: between them no quotient, product or sum in either kernel
// overflows or underflows.
const filterLo, filterHi = 0x1p-500, 0x1p500

// HeadDim is the width of a symkl row's first block: the components Heads
// sums, and what it has read of a row it drops.
const HeadDim = 4

// HeadBatch is the most rows one Heads call sums: one bit each of its
// mask.
const HeadBatch = 16

// headRow is one row's first block, its values and their float32 logs
// side by side (48 B), so that the heads of a batch of rows are one
// contiguous read where the row-major tables would be HeadBatch strided
// ones.
type headRow struct {
	x [HeadDim]float64
	l [HeadDim]float32
}

func inFilterDomain(x float64) bool { return x == 0 || (x >= filterLo && x <= filterHi) }

// NewFilterRows builds the filter table of the named KL-family distance
// (FastRowsFor(name) must hold) over a flat row-major matrix. The matrix
// is retained, not copied; it must not be mutated afterwards. A symkl
// table stores its logs and head table in filter order (filterOrder); the
// matrix keeps its own.
func NewFilterRows(rows []float64, dim int, name string) *FilterRows {
	if !FastRowsFor(name) {
		panic(fmt.Sprintf("distance: no log filter for distance %q", name))
	}
	f := &FilterRows{
		name:   name,
		t:      newLogTable[float32](rows, dim, false),
		relErr: 4*float64(dim+4)*0x1p-53 + 0x1p-24,
	}
	lo, hi, valid := math.Inf(1), eps, true // log is monotonic: the extreme elements carry maxLog
	for i := 0; i < len(rows); i += dim {
		var sum float64
		for _, x := range rows[i : i+dim] {
			valid = valid && inFilterDomain(x)
			sum += x
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		f.mass = math.Max(f.mass, sum)
	}
	if name == "symkl" {
		f.order = filterOrder(rows, dim)
		perm := make([]float32, dim)
		for i := 0; i < len(rows); i += dim {
			logs := f.t.logs[i : i+dim]
			for p, j := range f.order {
				perm[p] = logs[j]
			}
			copy(logs, perm)
		}
		if dim > HeadDim {
			f.heads = make([]headRow, len(rows)/dim)
			for i := range f.heads {
				h := &f.heads[i]
				for p, j := range f.order[:HeadDim] {
					h.x[p] = rows[i*dim+int(j)]
				}
				copy(h.l[:], f.t.logs[i*dim:])
			}
		}
	}
	if !valid {
		f.mass = math.Inf(1)
		return f
	}
	f.maxLog = math.Max(math.Abs(math.Log(math.Max(lo, eps))), math.Abs(math.Log(hi)))
	return f
}

// filterOrder returns the order in which symkl's filter reads the columns
// of a flat row-major matrix: by descending Cov(x_j, ℓx_j) over the rows,
// ℓx = ln max(x, eps), ties by index; the identity at dim ≤ HeadDim,
// where no block is checked before a row's end. In exact arithmetic that
// covariance is half the mean, over every ordered pair of rows (r, s), of
// column j's symkl term (r_j − s_j)(ℓr_j − ℓs_j) ≥ 0, so the columns that
// separate rows the most come first and a prefix reaches the stop soonest.
// Every term is non-negative whatever the order, so a prefix in this
// order bounds the row as one in any other does (DESIGN.md, "Early
// abandon"). A column with a non-finite statistic goes last.
func filterOrder(rows []float64, dim int) []int32 {
	order := make([]int32, dim)
	for j := range order {
		order[j] = int32(j)
	}
	if dim <= HeadDim {
		return order
	}
	// n·Cov = Σxℓ − Σx·Σℓ/n: one pass, and the 1/n does not reorder.
	sx, sl, sxl := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for i := 0; i < len(rows); i += dim {
		for j, x := range rows[i : i+dim] {
			l := math.Log(math.Max(x, eps))
			sx[j] += x
			sl[j] += l
			sxl[j] += x * l
		}
	}
	n := float64(len(rows) / dim)
	cov := make([]float64, dim)
	for j := range cov {
		cov[j] = sxl[j] - sx[j]*sl[j]/n
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(cov[b], cov[a]) })
	return order
}

// FilterQuery is one query prepared against a FilterRows by Prepare: the
// query and its logs, with the error bound ε(q) of every filter distance
// to it. It holds the per-query state of a
// filter pass so that the FilterRows, shared by every goroutine of a
// model, stays read-only; its buffers grow on first use and are reused.
type FilterQuery struct {
	// q and logs are the query and its logs, for symkl in the table's
	// filter order (q then points into perm).
	q, logs, perm []float64
	// Eps is ε(q): |Row's distance − the exact row kernel's| ≤ Eps for
	// every row Row reads in full. +Inf outside the proof's domain.
	Eps float64
	// margin is how far a symkl prefix must clear a cut for the row to be
	// abandoned (see Stop); NaN, which abandons nothing, for kl and an
	// unbounded query.
	margin float64
	// sums holds the (fwd, rev) first-block sums of the rows from head0
	// on that the last Heads call summed.
	sums  [HeadBatch][2]float64
	head0 int
}

// Prepare readies fq for Row calls over f's rows with query q, which it
// retains until the next Prepare. It panics when len(q) is not the table's
// dimension. A query outside the proof's domain (a negative, non-finite or
// denormal-range component) gets Eps = +Inf: the filter then claims
// nothing, abandons nothing, and the caller refines every row.
func (f *FilterRows) Prepare(q []float64, fq *FilterQuery) {
	dim := f.t.dim
	if len(q) != dim {
		panic(fmt.Sprintf("distance: query dimension %d != row dimension %d", len(q), dim))
	}
	if cap(fq.logs) < dim {
		fq.logs, fq.perm = make([]float64, dim), make([]float64, dim)
	}
	fq.q, fq.logs = q, fq.logs[:dim]
	if f.order != nil {
		fq.q = fq.perm[:dim]
		for p, j := range f.order {
			fq.q[p] = q[j]
		}
	}
	QueryLogs(fq.q, fq.logs)
	fq.Eps, fq.margin = f.bound(q, fq.logs), math.NaN()
	if f.name == "symkl" && !math.IsInf(fq.Eps, 1) {
		fq.margin = 2 * fq.Eps
	}
}

// bound returns ε(q) for a query q with logs qlogs, in any column order:
// +Inf outside the proof's domain. The mass is summed in q's own order,
// so ε's bits do not depend on the filter's.
func (f *FilterRows) bound(q, qlogs []float64) float64 {
	maxLog, mass := f.maxLog, f.mass
	for _, x := range q {
		if !inFilterDomain(x) {
			return math.Inf(1)
		}
		mass += x
	}
	for _, l := range qlogs {
		maxLog = math.Max(maxLog, math.Abs(l))
	}
	return f.relErr*(maxLog+1)*mass + float64(f.t.dim)*1e-12
}

// Stop returns the stop value for Row that abandons a symkl row only once
// its prefix proves its exact distance at or above cut: cut + 2ε, the
// margin derived in DESIGN.md, "Early abandon". It is NaN, which abandons
// nothing, when cut is NaN, ε is not finite, or the distance is kl, whose
// prefixes bound nothing.
func (fq *FilterQuery) Stop(cut float64) float64 { return cut + fq.margin }

// Row returns d ≈ d(q, row i) for the query fq was prepared with, and the
// number of the row's components it read. A symkl row is read in filter
// order and may be abandoned after a block of 4 components, while
// components remain unread, once the prefix of its sum reaches stop:
// read < dim then, d is that prefix, and if stop came from fq.Stop(cut),
// the row's exact distance is at or above cut. kl rows are always read in
// full; a NaN stop abandons nothing. A row read in full gets the value
// LogRows' kernels compute over its table with the columns in filter
// order, within fq.Eps of the exact row kernel's.
func (f *FilterRows) Row(fq *FilterQuery, i int, stop float64) (d float64, read int) {
	if f.name == "kl" {
		return f.t.klRow(fq.q, fq.logs, i), f.t.dim
	}
	return f.symKLFrom(fq, i, 0, 0, 0, stop)
}

// Heads sums the first block of rows i0 .. i0+m−1 (m ≤ HeadBatch) for the
// query fq was prepared with, and returns a mask whose bit b is set unless
// Row(fq, i0+b, stop) would abandon that row after its first block: the
// rows Rest must still read. Each row's sums take exactly the operations,
// in exactly the order, that Row's take, over one contiguous table with
// no branch. Where there is no first block to batch — kl, or symkl with
// dim ≤ HeadDim — it reads nothing and sets every bit.
func (f *FilterRows) Heads(fq *FilterQuery, i0, m int, stop float64) uint16 {
	if f.heads == nil {
		return uint16(1<<m - 1)
	}
	hs := f.heads[i0 : i0+m]
	sums := fq.sums[:m]
	fq.head0 = i0
	q, ql := fq.q[:HeadDim:HeadDim], fq.logs[:HeadDim:HeadDim]
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	l0, l1, l2, l3 := ql[0], ql[1], ql[2], ql[3]
	var live uint16
	bit := uint16(1)
	for b := range hs {
		h := &hs[b]
		var fwd, rev float64
		diff := l0 - float64(h.l[0])
		fwd += q0 * diff
		rev -= h.x[0] * diff
		diff = l1 - float64(h.l[1])
		fwd += q1 * diff
		rev -= h.x[1] * diff
		diff = l2 - float64(h.l[2])
		fwd += q2 * diff
		rev -= h.x[2] * diff
		diff = l3 - float64(h.l[3])
		fwd += q3 * diff
		rev -= h.x[3] * diff
		sums[b] = [2]float64{fwd, rev}
		if !(fwd+rev >= stop) {
			live |= bit
		}
		bit <<= 1
	}
	return live
}

// Rest returns Row(fq, i, stop) for a row i of the batch the last Heads
// call summed, since fq's last Prepare, starting from its first-block
// sums: it checks them against stop, which may have fallen since Heads,
// and reads on from the second block. Where Heads batches nothing it is
// Row.
func (f *FilterRows) Rest(fq *FilterQuery, i int, stop float64) (d float64, read int) {
	if f.heads == nil {
		return f.Row(fq, i, stop)
	}
	s := &fq.sums[i-fq.head0]
	fwd, rev := s[0], s[1]
	if fwd+rev >= stop {
		return fwd + rev, HeadDim
	}
	return f.symKLFrom(fq, i, HeadDim, fwd, rev, stop)
}

// symKLFrom is symkl's filter kernel: LogRows' symKLRow over the columns
// in filter order, resumed at position j, a multiple of 4, with fwd and rev
// the accumulators' values after positions 0 .. j−1. The query and the
// logs are stored in that order; the row's values are read from the
// matrix through it.
func (f *FilterRows) symKLFrom(fq *FilterQuery, i, j int, fwd, rev, stop float64) (d float64, read int) {
	dim := f.t.dim
	row, logs := f.t.rows[i*dim:][:dim], f.t.logs[i*dim:][:dim]
	q, ql, order := fq.q[:dim], fq.logs[:dim], f.order[:dim]
	for ; j+4 < dim; j += 4 {
		q4, ql4, l4, o4 := q[j:j+4:j+4], ql[j:j+4:j+4], logs[j:j+4:j+4], order[j:j+4:j+4]
		diff := ql4[0] - float64(l4[0])
		fwd += q4[0] * diff
		rev -= row[o4[0]] * diff
		diff = ql4[1] - float64(l4[1])
		fwd += q4[1] * diff
		rev -= row[o4[1]] * diff
		diff = ql4[2] - float64(l4[2])
		fwd += q4[2] * diff
		rev -= row[o4[2]] * diff
		diff = ql4[3] - float64(l4[3])
		fwd += q4[3] * diff
		rev -= row[o4[3]] * diff
		if fwd+rev >= stop {
			return fwd + rev, j + 4
		}
	}
	for ; j < dim; j++ {
		diff := ql[j] - float64(logs[j])
		fwd += q[j] * diff
		rev -= row[order[j]] * diff
	}
	if fwd < 0 {
		fwd = 0
	}
	if rev < 0 {
		rev = 0
	}
	return fwd + rev, dim
}
