package distance

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randRows draws n random pmf-shaped rows of the given dimension into a
// flat matrix; zeroFrac components are hard zeros to exercise the kernels'
// zero/eps handling.
func randRows(rng *rand.Rand, n, dim int, zeroFrac float64) []float64 {
	flat := make([]float64, n*dim)
	for r := 0; r < n; r++ {
		row := flat[r*dim : (r+1)*dim]
		var sum float64
		for i := range row {
			if rng.Float64() < zeroFrac {
				continue
			}
			row[i] = rng.Float64() + 1e-4
			sum += row[i]
		}
		if sum > 0 {
			for i := range row {
				row[i] /= sum
			}
		}
	}
	return flat
}

// TestRowKernelsBitExact pins that RowsOf(d) and d.F cannot drift: for
// every catalogue distance the row form equals the scalar Func bit for bit
// (NaN == NaN), on pmf-shaped inputs, on adversarialRows, and on queries
// carrying NaN, ±0, negative and sub-eps components. A hand-copied symkl
// row kernel once read a NaN query component against a zero row component
// as distance 0, where SymmetricKL says NaN.
func TestRowKernelsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, dim = 64, 26
	check := func(label string, rows, queries []float64) {
		t.Helper()
		out := make([]float64, n)
		for _, name := range Names() {
			d := Must(name)
			kernel := RowsOf(d)
			for qi := 0; qi < len(queries)/dim; qi++ {
				q := queries[qi*dim : (qi+1)*dim]
				kernel(q, rows, dim, out)
				for r := 0; r < n; r++ {
					want := d.F(q, rows[r*dim:(r+1)*dim])
					if math.Float64bits(out[r]) != math.Float64bits(want) {
						t.Fatalf("%s (%s): query %d row %d: kernel %v != scalar %v",
							name, label, qi, r, out[r], want)
					}
				}
			}
		}
	}
	for _, zeroFrac := range []float64{0, 0.3} {
		check("pmf", randRows(rng, n, dim, zeroFrac), randRows(rng, 8, dim, zeroFrac))
	}
	rows := adversarialRows(rng, n, dim)
	queries := adversarialRows(rng, 16, dim)
	check("adversarial", rows, queries)
	for _, bad := range []float64{math.NaN(), 0, math.Copysign(0, -1), -0.25, 1e-13} {
		poisoned := append([]float64(nil), queries...)
		for qi := 0; qi < len(poisoned)/dim; qi++ {
			poisoned[qi*dim+qi%dim] = bad
		}
		check("adversarial, poisoned query", rows, poisoned)
	}
}

// euclidean is a Distance from outside the catalogue.
func euclidean(p, q []float64) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// TestRowsOfGenericFallback checks that a Distance from outside the
// catalogue gets the same row form.
func TestRowsOfGenericFallback(t *testing.T) {
	d := Distance{Name: "custom-l2", F: euclidean}
	rng := rand.New(rand.NewSource(8))
	rows := randRows(rng, 10, 5, 0)
	q := randRows(rng, 1, 5, 0)
	out := make([]float64, 10)
	RowsOf(d)(q, rows, 5, out)
	for r := 0; r < 10; r++ {
		if want := euclidean(q, rows[r*5:(r+1)*5]); out[r] != want {
			t.Fatalf("generic fallback row %d: %v != %v", r, out[r], want)
		}
	}
}

// TestLogRowsCloseToScalar checks the fast KL-family path against the
// scalar kernels: not bit-exact by design, but within tight relative
// tolerance on smoothed (strictly positive) pmfs.
func TestLogRowsCloseToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, dim = 64, 26
	rows := randRows(rng, n, dim, 0) // strictly positive, like smoothed pmfs
	table := NewLogRows(rows, dim)
	if table.Len() != n || table.Dim() != dim {
		t.Fatalf("table shape %dx%d, want %dx%d", table.Len(), table.Dim(), n, dim)
	}
	q := randRows(rng, 1, dim, 0)
	qlogs := make([]float64, dim)
	QueryLogs(q, qlogs)
	out := make([]float64, n)

	table.SymKLRows(q, qlogs, out)
	for r := 0; r < n; r++ {
		want := SymmetricKL(q, rows[r*dim:(r+1)*dim])
		if math.Abs(out[r]-want) > 1e-9*(1+want) {
			t.Fatalf("fast symkl row %d: %v, scalar %v", r, out[r], want)
		}
	}
	table.KLRows(q, qlogs, out)
	for r := 0; r < n; r++ {
		want := KL(q, rows[r*dim:(r+1)*dim])
		if math.Abs(out[r]-want) > 1e-9*(1+want) {
			t.Fatalf("fast kl row %d: %v, scalar %v", r, out[r], want)
		}
	}
}

// TestLogRowsNonNegativeOnDuplicates: identical query and row must give a
// clean zero through the clamping, not a tiny negative.
func TestLogRowsNonNegativeOnDuplicates(t *testing.T) {
	row := []float64{0.2, 0.3, 0.5}
	table := NewLogRows(row, 3)
	qlogs := make([]float64, 3)
	QueryLogs(row, qlogs)
	out := make([]float64, 1)
	table.SymKLRows(row, qlogs, out)
	if out[0] != 0 {
		t.Fatalf("symkl(self) = %v, want 0", out[0])
	}
}

func TestFastRowsFor(t *testing.T) {
	for name, want := range map[string]bool{
		"kl": true, "symkl": true, "jsd": false, "custom-l2": false, "": false,
	} {
		if got := FastRowsFor(name); got != want {
			t.Fatalf("FastRowsFor(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestLogRowsJSDCloseToScalar checks the fast JSD entropy-decomposition
// kernel against the scalar Func: not bit-exact by design (the
// decomposition reassociates the sum), but within tight tolerance on
// smoothed and on zero-bearing pmfs alike.
func TestLogRowsJSDCloseToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, dim = 64, 26
	for _, zeroFrac := range []float64{0, 0.3} {
		rows := randRows(rng, n, dim, zeroFrac)
		table := NewLogRows(rows, dim)
		q := randRows(rng, 1, dim, zeroFrac)
		out := make([]float64, n)
		table.JSDRows(q, QueryNegEntropy(q), out)
		for r := 0; r < n; r++ {
			want := JensenShannon(q, rows[r*dim:(r+1)*dim])
			if math.Abs(out[r]-want) > 1e-9*want+1e-12 {
				t.Fatalf("fast jsd (zeroFrac %g) row %d: %v, scalar %v", zeroFrac, r, out[r], want)
			}
		}
	}
}

// TestLogRowsJSDSelfIsZero: the decomposition cancels exactly for an
// identical query and row — the clamp must not be doing the work.
func TestLogRowsJSDSelfIsZero(t *testing.T) {
	row := []float64{0.2, 0.3, 0.5}
	table := NewLogRows(row, 3)
	out := make([]float64, 1)
	table.JSDRows(row, QueryNegEntropy(row), out)
	if out[0] != 0 {
		t.Fatalf("jsd(self) = %v, want 0", out[0])
	}
}

// adversarialRows draws n rows whose components come from a palette built
// around what separates the log-table kernels from the exact ones: hard
// zeros, components inside (0, eps) and on either side of eps, a wide
// spread of magnitudes, and a last "rate" component that is 0 or above 1.
// A third of the rows repeat an earlier row verbatim.
func adversarialRows(rng *rand.Rand, n, dim int) []float64 {
	palette := []float64{0, 0, 1e-13, 9.99e-13, 1e-12, 1.0000001e-12, 1e-9, 1e-4, 0.01, 0.04, 0.25, 1}
	rates := []float64{0, 1.5, 40, 1e6}
	flat := make([]float64, n*dim)
	for r := 0; r < n; r++ {
		row := flat[r*dim : (r+1)*dim]
		if r > 0 && rng.Intn(3) == 0 {
			src := rng.Intn(r)
			copy(row, flat[src*dim:(src+1)*dim])
			continue
		}
		for j := range row {
			if rng.Intn(4) == 0 {
				row[j] = rng.Float64()
			} else {
				row[j] = palette[rng.Intn(len(palette))]
			}
		}
		row[dim-1] = rates[rng.Intn(len(rates))]
	}
	return flat
}

// filterRows runs f over every row, reading each in full, writes the
// distances into out and returns ε(q).
func filterRows(f *FilterRows, q, out []float64) float64 {
	var fq FilterQuery
	f.Prepare(q, &fq)
	for i := range out {
		out[i], _ = f.Row(&fq, i, math.NaN())
	}
	return fq.Eps
}

// TestFilterRowsWithinBound checks the contracts the exact k-NN's refine
// step leans on, on sets built to stretch the gap: every filter distance
// is within the ε(q) that Prepare returns of the exact row kernel's, and
// every symkl prefix the filter may abandon a row at is at most ε above
// the row's exact distance, so that the margin Stop adds (2ε) proves the
// exact distance at or above the cut.
func TestFilterRowsWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{2, 5, 26} {
		const n = 96
		rows := adversarialRows(rng, n, dim)
		queries := append(adversarialRows(rng, 32, dim), rows...)
		for _, name := range []string{"kl", "symkl"} {
			f := NewFilterRows(rows, dim, name)
			exact := RowsOf(Must(name))
			got, want := make([]float64, n), make([]float64, n)
			var tightest, tightestPrefix float64
			var prefixes int
			for k := 0; k < len(queries)/dim; k++ {
				q := queries[k*dim : (k+1)*dim]
				bound := filterRows(f, q, got)
				if math.IsInf(bound, 0) || math.IsNaN(bound) {
					t.Fatalf("%s dim %d: in-domain query %v got bound %v", name, dim, q, bound)
				}
				exact(q, rows, dim, want)
				for i := range want {
					gap := math.Abs(got[i] - want[i])
					if !(gap <= bound) {
						t.Fatalf("%s dim %d query %d row %d: filter %v, exact %v: gap %g > bound %g",
							name, dim, k, i, got[i], want[i], gap, bound)
					}
					tightest = math.Max(tightest, gap/bound)
				}
				var fq FilterQuery
				f.Prepare(q, &fq)
				if name != "symkl" {
					if stop := fq.Stop(0); !math.IsNaN(stop) {
						t.Fatalf("%s: stop %v, want NaN: its prefixes bound nothing", name, stop)
					}
					continue
				}
				if margin := fq.Stop(0); margin != 2*bound {
					t.Fatalf("symkl dim %d: margin %v, want 2ε = %v", dim, margin, 2*bound)
				}
				// Walk the prefixes Row can abandon at: raising the stop just
				// past each one returned finds the next larger, so every
				// prefix it could stop at, at any stop, is visited.
				for i := range want {
					for stop := math.Inf(-1); ; {
						p, read := f.Row(&fq, i, stop)
						if read == dim {
							break
						}
						if read%4 != 0 || !(p >= stop) {
							t.Fatalf("symkl dim %d query %d row %d: abandoned after %d components at prefix %v, stop %v", dim, k, i, read, p, stop)
						}
						if !(p-bound <= want[i]) {
							t.Fatalf("symkl dim %d query %d row %d: prefix %v after %d components exceeds exact %v by %g > ε %g",
								dim, k, i, p, read, want[i], p-want[i], bound)
						}
						prefixes++
						tightestPrefix = math.Max(tightestPrefix, (p-want[i])/bound)
						stop = math.Nextafter(p, math.Inf(1))
					}
				}
			}
			t.Logf("%s dim %d: largest gap/bound %.3g; %d prefixes, largest (prefix − exact)/ε %.3g",
				name, dim, tightest, prefixes, tightestPrefix)
		}
	}
}

// TestFilterRowsOutsideDomain: a component the error proof does not cover,
// in the query or anywhere in the matrix, must make the filter claim
// nothing (ε = +Inf) rather than something unproven, and abandon no row.
func TestFilterRowsOutsideDomain(t *testing.T) {
	const dim = 6 // one block of 4 with components left: a symkl row could be abandoned
	good := []float64{0.2, 0, 0.8, 0.5, 0.5, 3, 0.1, 0.3, 0.2, 0.2, 0.1, 1}
	out := make([]float64, 2)
	for _, bad := range []float64{math.NaN(), math.Inf(1), -0.25, 5e-324, 1e200} {
		for _, name := range []string{"kl", "symkl"} {
			q := []float64{0.5, bad, 0.5, 0, 0, 1}
			rows := append([]float64(nil), good...)
			rows[4] = bad
			for _, c := range []struct {
				what    string
				rows, q []float64
			}{{"query component", good, q}, {"matrix element", rows, good[:dim]}} {
				f := NewFilterRows(c.rows, dim, name)
				if bound := filterRows(f, c.q, out); !math.IsInf(bound, 1) {
					t.Errorf("%s: %s %v: bound %v, want +Inf", name, c.what, bad, bound)
				}
				var fq FilterQuery
				f.Prepare(c.q, &fq)
				for _, cut := range []float64{math.Inf(-1), 0, 1e300} {
					stop := fq.Stop(cut)
					if !math.IsNaN(stop) {
						t.Errorf("%s: %s %v: stop %v at cut %v, want NaN", name, c.what, bad, stop, cut)
					}
					for i := range out {
						if _, read := f.Row(&fq, i, stop); read != dim {
							t.Errorf("%s: %s %v: row %d abandoned after %d components", name, c.what, bad, i, read)
						}
					}
				}
			}
		}
	}
}

// TestFilterHeadsMatchRow: a batch through Heads and Rest is Row, bit for
// bit. Heads drops exactly the rows Row abandons after their first block
// at the same stop, and Rest, given a stop that has fallen since, returns
// what Row returns at that stop — over batches cut short by the end of
// the set, dimensions of one block plus a tail and of two blocks, and
// tables with no block to batch (kl, symkl at dim ≤ 4), where Heads
// drops nothing. Every batched table reads its columns in an order that
// is not the identity.
func TestFilterHeadsMatchRow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 37
	for _, dim := range []int{3, 4, 5, 8, 9, 26} {
		rows := adversarialRows(rng, n, dim)
		queries := append(adversarialRows(rng, 6, dim), rows[:3*dim]...)
		for _, name := range []string{"kl", "symkl"} {
			f := NewFilterRows(rows, dim, name)
			batched := name == "symkl" && dim > HeadDim
			if batched && slices.IsSorted(f.order) {
				t.Fatalf("symkl dim %d: filter order %v is the identity; the test lost its point", dim, f.order)
			}
			var fq FilterQuery
			for k := 0; k < len(queries)/dim; k++ {
				f.Prepare(queries[k*dim:(k+1)*dim], &fq)
				// Stops at and around the rows' first-block prefixes, so
				// that a batch holds dropped and live rows alike.
				stops := []float64{math.NaN(), math.Inf(-1), 0, math.Inf(1)}
				for i := 0; i < n; i += 5 {
					p, _ := f.Row(&fq, i, math.Inf(-1))
					stops = append(stops, p, math.Nextafter(p, math.Inf(1)))
				}
				var dropped int
				for _, stop := range stops {
					for i0 := 0; i0 < n; i0 += HeadBatch {
						m := min(HeadBatch, n-i0)
						live := f.Heads(&fq, i0, m, stop)
						if live>>m != 0 {
							t.Fatalf("%s dim %d: mask %016b sets bits past the batch's %d rows", name, dim, live, m)
						}
						for b := 0; b < m; b++ {
							i := i0 + b
							_, read := f.Row(&fq, i, stop)
							if drop := live&(1<<b) == 0; drop != (batched && read == HeadDim) {
								t.Fatalf("%s dim %d row %d stop %v: Heads dropped it %v, Row read %d components", name, dim, i, stop, drop, read)
							} else if drop {
								dropped++
								continue
							}
							// A push after Heads may lower the stop.
							for _, now := range []float64{stop, 0, math.Inf(-1)} {
								if now > stop {
									continue
								}
								wantD, wantRead := f.Row(&fq, i, now)
								d, read := f.Rest(&fq, i, now)
								if math.Float64bits(d) != math.Float64bits(wantD) || read != wantRead {
									t.Fatalf("%s dim %d row %d stop %v → %v: Rest %v after %d components, Row %v after %d",
										name, dim, i, stop, now, d, read, wantD, wantRead)
								}
							}
						}
					}
				}
				if batched && dropped == 0 {
					t.Fatalf("symkl dim %d query %d: Heads dropped no row at any stop", dim, k)
				}
			}
		}
	}
}

// TestFilterOrder: symkl's filter reads the columns in descending order of
// Cov(x_j, ln max(x_j, eps)) over the rows, ties by index — a permutation
// of them, stored so that Row over the reordered table is within ε of the
// exact kernel (TestFilterRowsWithinBound) and the head table holds the
// first HeadDim columns in that order. The set has a column of equal
// values (covariance 0), a copy of another column (an exact tie) and a
// rate column above 1 (the largest covariance); dim ≤ HeadDim keeps the
// identity, and kl, which abandons nothing, has no order.
func TestFilterOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n, dim = 50, 9
	rows := randRows(rng, n, dim, 0.2)
	for i := 0; i < n; i++ {
		r := rows[i*dim : (i+1)*dim]
		r[2] = 0.125
		r[6] = r[1]
		r[7] = 2 + 38*rng.Float64()
	}
	// The statistic, computed apart from filterOrder: two passes, means
	// first.
	cov := make([]float64, dim)
	for j := range cov {
		var mx, ml float64
		for i := 0; i < n; i++ {
			x := rows[i*dim+j]
			mx += x
			ml += math.Log(math.Max(x, eps))
		}
		mx, ml = mx/n, ml/n
		for i := 0; i < n; i++ {
			x := rows[i*dim+j]
			cov[j] += (x - mx) * (math.Log(math.Max(x, eps)) - ml) / n
		}
	}
	f := NewFilterRows(rows, dim, "symkl")
	order := f.order
	if len(order) != dim {
		t.Fatalf("order %v has %d columns, want %d", order, len(order), dim)
	}
	seen := make([]bool, dim)
	for _, j := range order {
		if j < 0 || int(j) >= dim || seen[j] {
			t.Fatalf("order %v is not a permutation of 0..%d", order, dim-1)
		}
		seen[j] = true
	}
	if order[0] != 7 {
		t.Errorf("order %v starts with column %d, want the rate column 7", order, order[0])
	}
	for p := 1; p < dim; p++ {
		a, b := order[p-1], order[p]
		switch {
		case cov[a] < cov[b]*(1-1e-9):
			t.Errorf("order %v: column %d (cov %g) before column %d (cov %g)", order, a, cov[a], b, cov[b])
		case math.Float64bits(cov[a]) == math.Float64bits(cov[b]) && a > b:
			t.Errorf("order %v: tied columns %d and %d out of index order", order, a, b)
		}
	}
	if p1, p6 := slices.Index(order, 1), slices.Index(order, 6); p1 != p6-1 {
		t.Errorf("order %v: column 6, a copy of column 1, does not follow it", order)
	}
	if order[dim-1] != 2 {
		t.Errorf("order %v ends with column %d, want the constant column 2", order, order[dim-1])
	}
	// The logs and the head table follow the order.
	for i := 0; i < n; i++ {
		for p, j := range order {
			x := rows[i*dim+int(j)]
			if want := float32(math.Log(math.Max(x, eps))); math.Float32bits(f.t.logs[i*dim+p]) != math.Float32bits(want) {
				t.Fatalf("row %d: log at position %d is %v, want column %d's %v", i, p, f.t.logs[i*dim+p], j, want)
			}
			if p < HeadDim && math.Float64bits(f.heads[i].x[p]) != math.Float64bits(x) {
				t.Fatalf("row %d: head value %d is %v, want column %d's %v", i, p, f.heads[i].x[p], j, x)
			}
		}
	}
	if o := NewFilterRows(rows[:n*HeadDim], HeadDim, "symkl").order; !slices.Equal(o, []int32{0, 1, 2, 3}) {
		t.Errorf("dim %d: order %v, want the identity", HeadDim, o)
	}
	if o := NewFilterRows(rows, dim, "kl").order; o != nil {
		t.Errorf("kl: order %v, want none", o)
	}
}
