package distance

import (
	"fmt"
	"math"
)

// This file holds the row forms of the catalogue distances: one query
// vector against every row of a flat row-major reference matrix, the shape
// of the LOF hot path.
//
//   - RowsOf is the exact form: a loop over the scalar Func, so the two
//     cannot disagree. It is the reference the log-table forms are tested
//     against and the only row form of the distances with no log to hoist.
//   - LogRows precomputes per-element logarithms for the KL family (kl,
//     symkl, jsd), removing every (jsd: half the) math.Log calls from the
//     per-row inner loop. It is approximate in the last ulps (log(p/q) !=
//     log p - log q in floating point) and backs the opt-in approximate
//     path: models fitted with FastKernels.
//   - FilterRows runs the same kernels over float32 logs and returns, with
//     the approximate distances, a proven bound on their error — the
//     filter half of the exact k-NN's filter-and-refine (lof.BruteIndex).

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
// T is the storage type of the logs, so the three kernel loops have one
// source: float64 in LogRows, float32 in FilterRows.
type logTable[T float32 | float64] struct {
	dim    int
	rows   []float64 // the reference matrix, retained
	logs   []T       // log(max(rows[i], eps)), elementwise; nil when only jsd is served
	negent []float64 // per row i: Σ_j row_ij · log(max(row_ij, eps)); nil when jsd is not served
}

// LogRows is the float64 log table behind the opt-in approximate path:
// models fitted with FastKernels. The default exact path uses FilterRows.
type LogRows = logTable[float64]

// NewLogRows builds the log table over a flat row-major matrix. The matrix
// is retained, not copied; it must not be mutated afterwards.
func NewLogRows(rows []float64, dim int) *LogRows {
	return newLogTable[float64](rows, dim, true, true)
}

func newLogTable[T float32 | float64](rows []float64, dim int, logs, negent bool) *logTable[T] {
	if dim <= 0 || len(rows)%dim != 0 {
		panic(fmt.Sprintf("distance: matrix length %d not a multiple of dim %d", len(rows), dim))
	}
	t := &logTable[T]{dim: dim, rows: rows}
	if logs {
		t.logs = make([]T, len(rows))
	}
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
			if logs {
				t.logs[i+j] = T(l)
			}
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
// must come from QueryLogs(q, ...). The inner loop is a branch-free
// multiply-add: a zero q component contributes pj·diff = ±0, which leaves
// every IEEE partial sum unchanged, so skipping the old pj > 0 test is
// value-identical and lets the loop pipeline.
func (t *logTable[T]) KLRows(q, qlogs, out []float64) {
	checkRows(q, t.rows, t.dim, out)
	dim := t.dim
	for i := range out {
		base := i * dim
		logs := t.logs[base : base+dim]
		var d float64
		for j, pj := range q {
			d += pj * (qlogs[j] - float64(logs[j]))
		}
		if d < 0 {
			d = 0
		}
		out[i] = d
	}
}

// SymKLRows writes out[i] ≈ symKL(q, row_i) using the precomputed logs;
// both KL directions are clamped at zero separately, matching the scalar
// kernel's convention. qlogs must come from QueryLogs(q, ...). Branch-free
// like KLRows: zero components add exact ±0 to either accumulator.
func (t *logTable[T]) SymKLRows(q, qlogs, out []float64) {
	checkRows(q, t.rows, t.dim, out)
	dim := t.dim
	for i := range out {
		base := i * dim
		row := t.rows[base : base+dim]
		logs := t.logs[base : base+dim]
		var fwd, rev float64
		for j, pj := range q {
			diff := qlogs[j] - float64(logs[j])
			fwd += pj * diff
			rev -= row[j] * diff
		}
		if fwd < 0 {
			fwd = 0
		}
		if rev < 0 {
			rev = 0
		}
		out[i] = fwd + rev
	}
}

// QueryNegEntropy returns Σ_j q_j · log(max(q_j, eps)) — the per-query
// negentropy half of the fast JSD decomposition, computed once per query
// instead of once per row.
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
// identical query and row give an exact 0.
func (t *logTable[T]) JSDRows(q []float64, qent float64, out []float64) {
	checkRows(q, t.rows, t.dim, out)
	dim := t.dim
	for i := range out {
		base := i * dim
		row := t.rows[base : base+dim]
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

// FastRowsFor reports whether the precomputed-log kernels apply to d:
// "kl" and "symkl" drop every log from the inner loop, "jsd" halves them
// via the entropy decomposition; every other catalogue distance has no log
// to amortize.
func FastRowsFor(name string) bool {
	return name == "kl" || name == "symkl" || name == "jsd"
}

// FilterRows is the filter half of the exact k-NN's filter-and-refine: the
// logTable kernels over a table small enough to keep beside every model
// (kl/symkl: float32 logs, half a LogRows; jsd: the n row negentropies
// only), plus what Rows needs to bound their error against the exact
// kernels. The bound is derived in DESIGN.md, "Exact k-NN through a
// float32 log filter".
type FilterRows struct {
	name string
	t    *logTable[float32]
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

func inFilterDomain(x float64) bool { return x == 0 || (x >= filterLo && x <= filterHi) }

// NewFilterRows builds the filter table of the named KL-family distance
// (FastRowsFor(name) must hold) over a flat row-major matrix. The matrix
// is retained, not copied; it must not be mutated afterwards.
func NewFilterRows(rows []float64, dim int, name string) *FilterRows {
	if !FastRowsFor(name) {
		panic(fmt.Sprintf("distance: no log filter for distance %q", name))
	}
	f := &FilterRows{name: name, relErr: 4 * float64(dim+4) * 0x1p-53}
	if name == "jsd" {
		f.t = newLogTable[float32](rows, dim, false, true)
	} else {
		f.t = newLogTable[float32](rows, dim, true, false)
		f.relErr += 0x1p-24
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
	if !valid {
		f.mass = math.Inf(1)
		return f
	}
	f.maxLog = math.Max(math.Abs(math.Log(math.Max(lo, eps))), math.Abs(math.Log(hi)))
	return f
}

// Rows writes out[i] ≈ d(q, row_i) and returns ε(q) such that
// |out[i] − RowsOf(d)'s out[i]| ≤ ε(q) for every row. qlogs is a dim-sized
// buffer Rows overwrites. A query outside the proof's domain (a negative,
// non-finite or denormal-range component) gets ε = +Inf: the filter then
// claims nothing and the caller refines every row.
func (f *FilterRows) Rows(q, qlogs, out []float64) float64 {
	QueryLogs(q, qlogs)
	switch f.name {
	case "kl":
		f.t.KLRows(q, qlogs, out)
	case "symkl":
		f.t.SymKLRows(q, qlogs, out)
	default:
		var qent float64
		for j, x := range q {
			qent += x * qlogs[j]
		}
		f.t.JSDRows(q, qent, out)
	}
	maxLog, mass := f.maxLog, f.mass
	for j, x := range q {
		if !inFilterDomain(x) {
			return math.Inf(1)
		}
		mass += x
		maxLog = math.Max(maxLog, math.Abs(qlogs[j]))
	}
	return f.relErr*(maxLog+1)*mass + float64(f.t.dim)*1e-12
}
