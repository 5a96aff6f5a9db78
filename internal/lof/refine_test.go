package lof

import (
	"math"
	"math/rand"
	"testing"

	"enduratrace/internal/distance"
)

// refinePalette holds the component values the filter-and-refine tests
// draw from. Few distinct values over a few dimensions make duplicate rows
// and exact distance ties between different rows common; the rest sit
// where the filter's kernels and the exact ones part ways (hard zeros,
// components inside (0, eps) and at eps, rate-like values above 1) or
// outside the domain of the filter's error proof (negative, denormal,
// huge, non-finite), where it must fall back to refining everything.
var refinePalette = []float64{
	0, 0, 0.04, 0.04, 0.2, 0.2, 0.5, 1, 1e-13, 5e-13, 1e-12, 1e-6, 3.5, 40,
	-0.25, 5e-324, 1e200, math.Inf(1), math.NaN(),
}

// decodeSet maps bytes to a query and a reference matrix of the given
// dimension: bytes below 128 index the in-domain part of the palette, the
// next 64 the whole palette, and the rest a 1/64 grid.
func decodeSet(data []byte, dim int) (q, flat []float64) {
	vals := make([]float64, len(data))
	for i, b := range data {
		switch {
		case b < 128:
			vals[i] = refinePalette[int(b)%14]
		case b < 192:
			vals[i] = refinePalette[int(b)%len(refinePalette)]
		default:
			vals[i] = float64(b-191) / 64
		}
	}
	if len(vals) < dim {
		return nil, nil
	}
	rest := vals[dim:]
	return vals[:dim], rest[:len(rest)/dim*dim]
}

// checkRefineEqualsFullScan asserts that KNN through the filter returns,
// for every skip, the (Idx, Dist) sequence selectK returns over the full
// exact row kernel — bit for bit. It reports whether any query had two
// different rows tied exactly at the k-th distance.
func checkRefineEqualsFullScan(t *testing.T, name string, q, flat []float64, dim, k int) (boundaryTie bool) {
	t.Helper()
	d := distance.Must(name)
	n := len(flat) / dim
	idx := NewBruteIndex(flat, dim, d)
	if idx.filter == nil {
		t.Fatalf("%s: index built no filter", name)
	}
	exact := make([]float64, n)
	distance.RowsOf(d)(q, flat, dim, exact)
	var sf, sx Scratch
	for skip := -1; skip < n; skip++ {
		want := append([]Neighbor(nil), selectK(append([]float64(nil), exact...), k, skip, &sx)...)
		got := idx.KNN(q, k, skip, &sf)
		if len(got) != len(want) {
			t.Fatalf("%s k=%d skip=%d: %d neighbours, full scan %d\nq=%v\nrows=%v", name, k, skip, len(got), len(want), q, flat)
		}
		for i := range want {
			if got[i].Idx != want[i].Idx || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("%s k=%d skip=%d: neighbour %d = %+v, full scan %+v\nq=%v\nrows=%v", name, k, skip, i, got[i], want[i], q, flat)
			}
		}
		if len(want) == k {
			for i, e := range exact {
				//lint:ignore floateq an exact tie is what is being looked for
				if i != skip && i != want[k-1].Idx && e == want[k-1].Dist {
					boundaryTie = true
				}
			}
		}
	}
	return boundaryTie
}

// nearTies are sets of a query and two different rows whose exact
// distances differ, for the listed distances, by less than 2ε: the
// filter's intervals overlap and only the exact kernel can order them.
var nearTies = []struct {
	data  []byte
	dim   int
	dists []string
}{
	// 1e-12 against 1e-6 where the query has 1e-6, ≈ 1.4e-5 apart; the
	// rate component of 40 widens ε to ≈ 1.4e-4.
	{[]byte{6, 2, 11, 13, 2, 6, 10, 13, 2, 6, 11, 13}, 4, []string{"kl", "symkl"}},
	// 1e-13 against 5e-13 where the query has 0, ≈ 1.4e-13 apart.
	{[]byte{6, 2, 0, 2, 6, 8, 2, 6, 9}, 3, []string{"symkl", "jsd"}},
}

// checkNearTie asserts that the two rows of flat are a near tie for q
// under the named distance, and that the 1-NN query resolved both: its one
// comparison between them was undecided, where a decided one leaves only
// the survivor to resolve.
func checkNearTie(t *testing.T, name string, q, flat []float64, dim int) {
	t.Helper()
	d := distance.Must(name)
	idx := NewBruteIndex(flat, dim, d)
	var fq distance.FilterQuery
	idx.filter.Prepare(q, &fq)
	eps := fq.Eps
	r0, r1 := flat[:dim], flat[dim:]
	e0, e1 := d.F(q, r0), d.F(q, r1)
	same := true
	for j := range r0 {
		same = same && math.Float64bits(r0[j]) == math.Float64bits(r1[j])
	}
	if same || math.Float64bits(e0) == math.Float64bits(e1) || !(math.Abs(e0-e1) < 2*eps) {
		t.Fatalf("%s: rows %v and %v at %v and %v (ε %g) are no near tie for %v", name, r0, r1, e0, e1, eps, q)
	}
	var s Scratch
	idx.KNN(q, 1, -1, &s)
	if _, refined, _ := s.FilterStats(); refined != 2 {
		t.Fatalf("%s: %d exact kernel calls for the near tie, want 2 (both sides of an undecided comparison)", name, refined)
	}
}

// nearCut is a symkl set, dim 5, whose second row's prefix after its
// first block of 4 components lands at or above the cut its first row
// sets for a 1-NN query (that row's upper bound), but below the cut plus
// the abandon margin: the row must be read in full, not abandoned on a
// prefix that proves nothing.
var nearCut = []byte{4, 5, 4, 209, 193, 12, 3, 7, 206, 10, 12, 7, 231, 242, 238}

// checkNearCut asserts that nearCut is what it claims to be and that the
// 1-NN query read both its rows in full: with the second row in the first
// batch, which is summed before the heap holds a row, and as the first
// row of the second batch, which is summed against the cut. The 15 rows
// between them in the second layout are far from the query: each is
// abandoned after its first block and leaves the heap, and so the cut, as
// it is.
func checkNearCut(t *testing.T) {
	t.Helper()
	const dim = 5
	q, pair := decodeSet(nearCut, dim)
	far := []float64{3.3, 3.3, 0, 0, 0} // inside the pair's range and mass: ε stays
	for _, pad := range []int{0, distance.HeadBatch - 1} {
		flat := append([]float64(nil), pair[:dim]...)
		for c := 0; c < pad; c++ {
			flat = append(flat, far...)
		}
		flat = append(flat, pair[dim:]...)
		last := len(flat)/dim - 1
		idx := NewBruteIndex(flat, dim, distance.Must("symkl"))
		var fq distance.FilterQuery
		idx.filter.Prepare(q, &fq)
		a0, _ := idx.filter.Row(&fq, 0, math.NaN())
		cut := a0 + fq.Eps
		p, read := idx.filter.Row(&fq, last, math.Inf(-1))
		if read != 4 || !(p >= cut && p < fq.Stop(cut)) {
			t.Fatalf("nearCut: prefix %v after %d components, want 4 and within [%v, %v)", p, read, cut, fq.Stop(cut))
		}
		var s Scratch
		idx.KNN(q, 1, -1, &s)
		if _, _, read := s.FilterStats(); read != 2*dim+pad*distance.HeadDim {
			t.Fatalf("nearCut, row %d: the filter read %d components, want %d: both rows in full, the far rows' first blocks",
				last, read, 2*dim+pad*distance.HeadDim)
		}
	}
}

// TestRefineEqualsFullScan drives the equivalence over adversarial sets:
// duplicate rows, exact ties at the k-th distance between different rows,
// near ties the filter cannot order, zero components, components in
// (0, 1e-12), a last "rate" component above 1 and at 0, n <= k, every
// skip, NaN and out-of-domain queries. The symkl sets of dim > 4 go
// through the batched first block: row counts that are and are not a
// multiple of distance.HeadBatch, one block plus a tail (5, 8) and two
// blocks (9, 12); every skip includes the first and last row of each
// batch and the last row of the set.
func TestRefineEqualsFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ties int
	for _, tc := range []struct{ n, dim, k int }{
		{40, 3, 5}, {64, 4, 8}, {3, 3, 5}, {5, 2, 5}, {30, 1, 4}, {48, 26, 20},
		{50, 26, 20}, {37, 5, 6}, {33, 8, 3}, {40, 9, 5}, {17, 12, 2},
	} {
		for rep := 0; rep < 6; rep++ {
			data := make([]byte, (tc.n+1)*tc.dim)
			for i := range data {
				data[i] = byte(rng.Intn(128)) // in-domain: the filter prunes
				if rep == 5 {
					data[i] = byte(rng.Intn(256)) // anything: it may not
				}
			}
			// Plant duplicates of row 0 and of the query.
			for r := 2; r < tc.n; r += 7 {
				copy(data[(r+1)*tc.dim:(r+2)*tc.dim], data[tc.dim:2*tc.dim])
			}
			if tc.n > 4 {
				copy(data[4*tc.dim:5*tc.dim], data[:tc.dim])
			}
			q, flat := decodeSet(data, tc.dim)
			switch rep {
			case 3:
				flat[len(flat)-1], q[tc.dim-1] = 0, 40 // rate 0 in a row, above 1 in the query
			case 4:
				q[0] = math.NaN()
			}
			for _, name := range []string{"kl", "symkl", "jsd"} {
				if checkRefineEqualsFullScan(t, name, q, flat, tc.dim, tc.k) {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no case had different rows tied at the k-th distance; the fixture lost its point")
	}
	for _, nt := range nearTies {
		q, flat := decodeSet(nt.data, nt.dim)
		for _, name := range nt.dists {
			checkNearTie(t, name, q, flat, nt.dim)
			checkRefineEqualsFullScan(t, name, q, flat, nt.dim, 1)
		}
	}
	checkNearCut(t)
	q, flat := decodeSet(nearCut, 5)
	checkRefineEqualsFullScan(t, "symkl", q, flat, 5, 1)
}

// TestKNNWrongLengthPanics: on the filter path too, a query that is not a
// row's length panics rather than being read short or past its end.
func TestKNNWrongLengthPanics(t *testing.T) {
	flat := []float64{0.2, 0, 0.8, 0.5, 0.5, 3, 0.1, 0.3, 0.2, 0.2, 0.1, 1}
	for _, name := range []string{"kl", "symkl", "jsd"} {
		idx := NewBruteIndex(flat, 6, distance.Must(name))
		for _, n := range []int{5, 7} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a %d-component query against 6-component rows did not panic", name, n)
					}
				}()
				var s Scratch
				idx.KNN(make([]float64, n), 1, -1, &s)
			}()
		}
	}
}

// TestRefinePrunes: on well-behaved pmfs the exact kernel must run about
// once per neighbour, not once per row the filter keeps — staying correct
// while refining more would give the speed back silently.
func TestRefinePrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pts := pmfPoints(rng, 1000, 8)
	for _, name := range []string{"kl", "symkl", "jsd"} {
		m, err := Fit(pts, 10, distance.Must(name), FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sc := m.NewScorer()
		for _, q := range pmfPoints(rng, 50, 8) {
			sc.Score(q)
		}
		filtered, refined, _ := sc.FilterStats()
		if filtered != 50*1000 || refined > 50*3*m.K {
			t.Errorf("%s: %d rows filtered, %d exact kernel calls over 50 queries, want 50000 and at most 3·K a query", name, filtered, refined)
		}
		t.Logf("%s: %.1f exact kernel calls a query", name, float64(refined)/50)
	}
	m, err := Fit(pts, 10, distance.Must("symkl"), FitOptions{FastKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.NewScorer()
	sc.Score(pts[0])
	if filtered, refined, read := sc.FilterStats(); filtered != 0 || refined != 0 || read != 0 {
		t.Errorf("fast kernels: filter counted %d rows, %d exact calls, %d components, want none", filtered, refined, read)
	}
	if m.index.filter != nil {
		t.Error("fast kernels: the filter table was kept")
	}
	if b := NewBruteIndex(m.Rows(), m.Dim(), distance.Must("l2")); b.filter != nil {
		t.Error("l2: a filter table was built")
	}
}

// FuzzRefineEqualsFullScan lets the fuzzer pick the set, the distance, the
// dimension and k.
func FuzzRefineEqualsFullScan(f *testing.F) {
	f.Add([]byte{6, 2, 4, 6, 2, 4, 4, 6, 2, 6, 2, 4, 0, 8, 9, 2, 4, 6}, uint8(2), uint8(1), uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(0), uint8(3), uint8(0))
	f.Add([]byte{200, 146, 9, 13, 255, 130, 8, 1, 210, 145, 3, 12, 220, 7, 6, 5}, uint8(3), uint8(2), uint8(2))
	f.Add(nearTies[0].data, uint8(3), uint8(0), uint8(1)) // symkl, dim 4, k 1
	f.Add(nearTies[1].data, uint8(2), uint8(0), uint8(2)) // jsd, dim 3, k 1
	f.Add(nearCut, uint8(4), uint8(0), uint8(1))          // symkl, dim 5, k 1
	// symkl, dim 9 (two blocks and a tail), k 3: 19 rows, a full batch
	// and three more.
	many := make([]byte, 20*9)
	for i := range many {
		many[i] = byte(i*37%128) ^ byte(i/9)
	}
	f.Add(many, uint8(8), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, dimSel, kSel, distSel uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		dim := 1 + int(dimSel)%12
		q, flat := decodeSet(data, dim)
		if q == nil {
			return
		}
		name := []string{"kl", "symkl", "jsd"}[int(distSel)%3]
		checkRefineEqualsFullScan(t, name, q, flat, dim, 1+int(kSel)%8)
	})
}
