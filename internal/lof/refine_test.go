package lof

import (
	"encoding/binary"
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

// rowKey is a row's bit pattern, as a map key.
func rowKey(row []float64) string {
	b := make([]byte, 0, 8*len(row))
	for _, x := range row {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return string(b)
}

// checkRefineEqualsFullScan asserts that KNN through the filter returns,
// for every skip, the (Idx, Dist) sequence selectK returns over the full
// exact row kernel — bit for bit — and that no query ran the exact kernel
// twice on one row's bits: a copy of a row shares its group's distance,
// the copies of the skipped row included, and that every query counts
// each row but skip as filtered. Before each query the scratch answers
// another (a row of the set),
// so that what it keeps of that one must not leak into the next. It
// reports whether any query had two different rows tied exactly at the
// k-th distance.
func checkRefineEqualsFullScan(t *testing.T, name string, q, flat []float64, dim, k int) (boundaryTie bool) {
	t.Helper()
	d := distance.Must(name)
	n := len(flat) / dim
	calls := map[string]int{}
	counted := distance.Distance{Name: d.Name, F: func(p, r []float64) float64 {
		calls[rowKey(r)]++
		return d.F(p, r)
	}}
	idx := NewBruteIndex(flat, dim, counted)
	if idx.filter == nil {
		t.Fatalf("%s: index built no filter", name)
	}
	exact := make([]float64, n)
	distance.RowsOf(d)(q, flat, dim, exact)
	var sf, sx Scratch
	for skip := -1; skip < n; skip++ {
		scan := append([]Neighbor(nil), selectK(append([]float64(nil), exact...), k, skip, &sx)...)
		if n > 0 {
			other := (skip + 1) % n
			idx.KNN(flat[other*dim:(other+1)*dim], k, -1, &sf)
		}
		clear(calls)
		filtered, _, _ := sf.FilterStats()
		got := idx.KNN(q, k, skip, &sf)
		for key, c := range calls {
			if c > 1 {
				t.Fatalf("%s k=%d skip=%d: %d exact kernel calls on one row's bits %v\nq=%v\nrows=%v",
					name, k, skip, c, []byte(key), q, flat)
			}
		}
		want := n
		if skip >= 0 {
			want--
		}
		if now, _, _ := sf.FilterStats(); now-filtered != want {
			t.Fatalf("%s k=%d skip=%d: %d rows filtered, want %d", name, k, skip, now-filtered, want)
		}
		if len(got) != len(scan) {
			t.Fatalf("%s k=%d skip=%d: %d neighbours, full scan %d\nq=%v\nrows=%v", name, k, skip, len(got), len(scan), q, flat)
		}
		for i := range scan {
			if got[i].Idx != scan[i].Idx || math.Float64bits(got[i].Dist) != math.Float64bits(scan[i].Dist) {
				t.Fatalf("%s k=%d skip=%d: neighbour %d = %+v, full scan %+v\nq=%v\nrows=%v", name, k, skip, i, got[i], scan[i], q, flat)
			}
		}
		if len(scan) == k {
			for i, e := range exact {
				if i != skip && i != scan[k-1].Idx && e == scan[k-1].Dist {
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
	{[]byte{6, 2, 0, 2, 6, 8, 2, 6, 9}, 3, []string{"symkl"}},
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
// first block of 4 components, in filter order, lands at or above the cut
// its first row sets for a 1-NN query (that row's upper bound), but below
// the cut plus the abandon margin: the row must be read in full, not
// abandoned on a prefix that proves nothing. The filter order depends on
// every row of the set; it holds both alone and with checkNearCut's far
// rows between its two rows.
var nearCut = []byte{8, 215, 12, 1, 9, 10, 196, 11, 201, 5, 237, 210, 1, 236, 246}

// checkNearCut asserts that nearCut is what it claims to be and that the
// 1-NN query read both its rows in full: with the second row in the first
// batch, which is summed before the heap holds a row, and as the first
// row of the second batch, which is summed against the cut. The 15 rows
// between them in the second layout are far from the query and each is
// abandoned after its first block, leaving the heap, and so the cut, as
// it is. They differ from one another, or the index would store them as
// one row and the pair would share a batch.
func checkNearCut(t *testing.T) {
	t.Helper()
	const dim = 5
	q, pair := decodeSet(nearCut, dim)
	for _, pad := range []int{0, distance.HeadBatch - 1} {
		flat := append([]float64(nil), pair[:dim]...)
		for c := 0; c < pad; c++ {
			flat = append(flat, 3.3, 3.3+float64(c)/1024, 0, 0, 0)
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

// copySet is a set of distinct pmf rows with bitwise copies of one row
// planted at chosen indexes, and a query near that row; distinct is the
// number of distinct rows the index must store.
type copySet struct {
	what     string
	q, flat  []float64
	dim, k   int
	distinct int
}

// copySets builds the sets that drive refine's copy groups through each of
// their paths; each holds one group, whose rows are among the query's
// nearest unless the case says otherwise.
func copySets(t *testing.T, rng *rand.Rand) []copySet {
	t.Helper()
	rows := func(n, dim int) []float64 {
		var flat []float64
		for _, p := range pmfPoints(rng, n, dim) {
			flat = append(flat, p...)
		}
		return flat
	}
	row := func(flat []float64, dim, i int) []float64 { return flat[i*dim : (i+1)*dim] }
	plant := func(flat []float64, dim, src int, dst ...int) {
		for _, r := range dst {
			copy(row(flat, dim, r), row(flat, dim, src))
		}
	}
	near := func(p []float64, spread float64) []float64 {
		q := append([]float64(nil), p...)
		for j := range q {
			q[j] *= 1 + spread*(rng.Float64()-0.5)
		}
		return q
	}
	var sets []copySet

	// The group's first row is the query itself: when it is skip (the fit
	// path), its copies are the nearest rows and must be filtered as if
	// they had none, not taken for "no".
	flat := rows(20, 6)
	plant(flat, 6, 3, 8, 11, 19)
	sets = append(sets, copySet{"first row skipped", append([]float64(nil), row(flat, 6, 3)...), flat, 6, 3, 17})

	// The group straddles the first HeadBatch boundary of the distinct
	// rows: its first row is the last of batch 0, its copies come before
	// the first row of batch 1 and among those of batch 1.
	flat = rows(40, 6)
	plant(flat, 6, 15, 16, 17, 18, 33)
	sets = append(sets, copySet{"straddles a batch", near(row(flat, 6, 15), 0.05), flat, 6, 4, 36})

	// The group's first row is inside batch 0 of the distinct rows, and
	// its copies come when batch 1 is summed (rows 16 and 25: 16 and 25
	// distinct rows before them) and after every distinct row (row 39).
	flat = rows(40, 6)
	plant(flat, 6, 3, 16, 25, 39)
	sets = append(sets, copySet{"copies in a later batch", near(row(flat, 6, 3), 0.05), flat, 6, 3, 37})

	// Every row is a copy of row 0: one distinct row, and every neighbour
	// a copy; the query is that row itself, or near it.
	one := rows(1, 6)
	flat = nil
	for i := 0; i < 20; i++ {
		flat = append(flat, one...)
	}
	sets = append(sets, copySet{"one distinct row, query on it", one, flat, 6, 3, 1})
	sets = append(sets, copySet{"one distinct row, query near it", near(one, 0.05), flat, 6, 3, 1})

	// No row repeats: the index keeps the matrix as it is.
	flat = rows(40, 6)
	sets = append(sets, copySet{"no copies", near(row(flat, 6, 7), 0.05), flat, 6, 4, 40})

	// The group's first row, row 2, is far: Rest abandons it once rows 0
	// and 1 fill the heap. Rows 3 to 5 are nearer still, so the cut falls
	// before its copy in the same batch (row 9) and those in later ones.
	const dim = 9
	flat = rows(36, dim)
	q := row(flat, dim, 35)
	for i, spread := range []float64{0.4, 0.4, -1, 0.05, 0.05, 0.05} {
		if spread > 0 {
			copy(row(flat, dim, i), near(q, spread))
		}
	}
	plant(flat, dim, 2, 9, 20, 31)
	q = append([]float64(nil), q...)
	flat = flat[:35*dim]
	idx := NewBruteIndex(flat, dim, distance.Must("symkl"))
	var fq distance.FilterQuery
	idx.filter.Prepare(q, &fq)
	a0, _ := idx.filter.Row(&fq, 0, math.NaN())
	a1, _ := idx.filter.Row(&fq, 1, math.NaN())
	a3, _ := idx.filter.Row(&fq, 3, math.NaN())
	cut := max(a0, a1) + fq.Eps
	if _, read := idx.filter.Row(&fq, 2, fq.Stop(cut)); read == dim || !(a3+fq.Eps < max(a0, a1)-fq.Eps) {
		t.Fatalf("copy set: row 2 read %d of %d components at the cut rows 0 and 1 set, row 3 at %v against %v, %v: the case lost its point",
			read, dim, a3, a0, a1)
	}
	sets = append(sets, copySet{"first row abandoned", q, flat, dim, 2, 32})

	// Row 0 goes into the heap unresolved; its copy, row 1, is offered with
	// its interval and the comparison between the two resolves both, one
	// exact call for the group; row 5, a copy offered after that, gets the
	// exact distance.
	flat = rows(24, 6)
	plant(flat, 6, 0, 1, 5)
	sets = append(sets, copySet{"offered before and after resolve", near(row(flat, 6, 0), 0.05), flat, 6, 2, 22})
	return sets
}

// TestRefineEqualsFullScan drives the equivalence over adversarial sets:
// duplicate rows, exact ties at the k-th distance between different rows,
// near ties the filter cannot order, zero components, components in
// (0, 1e-12), a last "rate" component above 1 and at 0, n <= k, every
// skip, NaN and out-of-domain queries. The symkl sets of dim > 4 go
// through the batched first block: row counts that are and are not a
// multiple of distance.HeadBatch, one block plus a tail (5, 8) and two
// blocks (9, 12); every skip includes the first and last row of each
// batch and the last row of the set. copySets adds groups of copies whose
// first row is skipped, straddles a batch, is abandoned, or is resolved
// between the offers of its copies; every set also checks that no query
// runs the exact kernel twice on one row's bits.
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
			for _, name := range []string{"kl", "symkl"} {
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
	for _, cs := range copySets(t, rng) {
		if got := len(NewBruteIndex(cs.flat, cs.dim, l2()).flat) / cs.dim; got != cs.distinct {
			t.Fatalf("%s: the index stores %d distinct rows, want %d", cs.what, got, cs.distinct)
		}
		for _, name := range []string{"kl", "symkl"} {
			t.Logf("%s: %s", cs.what, name)
			checkRefineEqualsFullScan(t, name, cs.q, cs.flat, cs.dim, cs.k)
		}
	}
}

// TestKNNWrongLengthPanics: on the filter path too, a query that is not a
// row's length panics rather than being read short or past its end.
func TestKNNWrongLengthPanics(t *testing.T) {
	flat := []float64{0.2, 0, 0.8, 0.5, 0.5, 3, 0.1, 0.3, 0.2, 0.2, 0.1, 1}
	for _, name := range []string{"kl", "symkl"} {
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
	for _, name := range []string{"kl", "symkl"} {
		m, err := Fit(pts, 10, distance.Must(name))
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
	m, err := Fit(pts, 10, l2())
	if err != nil {
		t.Fatal(err)
	}
	if m.index.filter != nil {
		t.Error("euclidean: a filter table was built")
	}
}

// plantCopies copies one row of a flat matrix over others, as sel picks:
// sel 0 copies nothing; otherwise row (sel−1)%16, modulo the row count,
// goes over every (1 + (sel−1)/16)-th row after it, so that sel 1 makes
// every row a copy of row 0.
func plantCopies(flat []float64, dim int, sel uint8) {
	n := len(flat) / dim
	if sel == 0 || n == 0 {
		return
	}
	src, step := int((sel-1)%16)%n, 1+int((sel-1)/16)
	for r := src + step; r < n; r += step {
		copy(flat[r*dim:(r+1)*dim], flat[src*dim:(src+1)*dim])
	}
}

// FuzzRefineEqualsFullScan lets the fuzzer pick the set, the distance, the
// dimension, k and a row to copy over others (plantCopies), so that its
// sets hold groups of copies. The seeds include sets with no copy, with
// every row a copy of one, and with a group whose copies come in a later
// batch of distinct rows than its first row.
func FuzzRefineEqualsFullScan(f *testing.F) {
	f.Add([]byte{6, 2, 4, 6, 2, 4, 4, 6, 2, 6, 2, 4, 0, 8, 9, 2, 4, 6}, uint8(2), uint8(1), uint8(1), uint8(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(0), uint8(3), uint8(0), uint8(0))
	f.Add([]byte{200, 146, 9, 13, 255, 130, 8, 1, 210, 145, 3, 12, 220, 7, 6, 5}, uint8(3), uint8(2), uint8(2), uint8(0))
	f.Add(nearTies[0].data, uint8(3), uint8(0), uint8(1), uint8(0)) // symkl, dim 4, k 1
	f.Add(nearTies[1].data, uint8(2), uint8(0), uint8(1), uint8(0)) // symkl, dim 3, k 1
	f.Add(nearCut, uint8(4), uint8(0), uint8(1), uint8(0))          // symkl, dim 5, k 1
	// symkl, dim 9 (two blocks and a tail), k 3: 19 rows, a full batch
	// and three more.
	many := make([]byte, 20*9)
	for i := range many {
		many[i] = byte(i*37%128) ^ byte(i/9)
	}
	f.Add(many, uint8(8), uint8(2), uint8(1), uint8(0))
	// The same set with row 13 copied over every 3rd row after it: a group
	// that straddles the batch boundary, k 3.
	f.Add(many, uint8(8), uint8(2), uint8(1), uint8(2*16+13+1))
	// Row 2 copied over row 18, which comes after 18 distinct rows: in
	// the second batch of distinct rows, its first row in the first.
	f.Add(many, uint8(8), uint8(2), uint8(1), uint8(15*16+2+1))
	// Every row a copy of row 0, symkl and kl.
	f.Add(many, uint8(8), uint8(2), uint8(1), uint8(1))
	f.Add(many, uint8(8), uint8(2), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, dimSel, kSel, distSel, copySel uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		dim := 1 + int(dimSel)%12
		q, flat := decodeSet(data, dim)
		if q == nil {
			return
		}
		plantCopies(flat, dim, copySel)
		name := []string{"kl", "symkl"}[int(distSel)%2]
		checkRefineEqualsFullScan(t, name, q, flat, dim, 1+int(kSel)%8)
	})
}
