package sweep

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"enduratrace/internal/eval"
)

// tinyGrid is a sweep sized for tests: a 20 s reference run and a 40 s
// perturbed run with one 10 s factor-3 perturbation per job.
func tinyGrid() Grid {
	g := DefaultGrid(1)
	g.Base.RefDuration = 20 * time.Second
	g.Base.RunDuration = 40 * time.Second
	g.Base.Schedule.First = 15 * time.Second
	g.Base.Schedule.Period = 60 * time.Second
	g.Base.Schedule.Duration = 10 * time.Second
	g.Distances = []string{"symkl"}
	return g
}

func TestJobsDeterministicAndUnique(t *testing.T) {
	g := DefaultGrid(3)
	g.Alphas = []float64{2.0, 2.5}
	g.Ks = []int{10, 20}

	jobs1, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs2, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs1, jobs2) {
		t.Fatal("two expansions of the same grid differ")
	}
	want := len(g.Distances) * len(g.Alphas) * len(g.Factors) * len(g.Ks) * len(g.Seeds)
	if len(jobs1) != want {
		t.Fatalf("%d jobs, want %d", len(jobs1), want)
	}
	type key struct {
		c Cell
		s int64
	}
	seen := make(map[key]bool, len(jobs1))
	for i, j := range jobs1 {
		if j.Index != i {
			t.Fatalf("job %d has Index %d", i, j.Index)
		}
		k := key{j.Cell, j.Seed}
		if seen[k] {
			t.Fatalf("duplicate job %+v", j)
		}
		seen[k] = true
	}
	if cells := g.Cells(); len(cells)*len(g.Seeds) != want {
		t.Fatalf("Cells() has %d entries, want %d", len(cells), want/len(g.Seeds))
	}
}

// badGrids each break one rule of Grid.Validate.
var badGrids = []func(*Grid){
	func(g *Grid) { g.Distances = nil },
	func(g *Grid) { g.Seeds = nil },
	func(g *Grid) { g.Distances = []string{"nope"} },
	func(g *Grid) { g.Distances = []string{"kl", "kl"} },
	func(g *Grid) { g.Distances = []string{"hellinger"} },
	func(g *Grid) { g.Alphas = []float64{2, 2} },
	func(g *Grid) { g.Ks = []int{0} },
	func(g *Grid) { g.Ks = []int{20, 20} },
	func(g *Grid) { g.Seeds = []int64{1, 1} },
}

func TestValidateRejectsBadGrids(t *testing.T) {
	for i, mutate := range badGrids {
		g := DefaultGrid(2)
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("bad grid %d accepted", i)
		}
	}
}

// TestSingleCellMatchesEval is the acceptance check that the sweep machinery
// adds nothing to the science: a 1-cell × 1-seed sweep's report byte-matches
// a direct eval.Run with the same materialised options.
func TestSingleCellMatchesEval(t *testing.T) {
	g := tinyGrid()

	var got *eval.Report
	summaries, err := Run(g, RunOptions{Workers: 1, OnResult: func(r Result) {
		if r.Err != nil {
			t.Errorf("job error: %v", r.Err)
			return
		}
		got = r.Report
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no report observed")
	}

	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := g.Options(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("sweep report differs from direct eval:\n%s\n%s", gotJSON, wantJSON)
	}

	if len(summaries) != 1 {
		t.Fatalf("%d summaries, want 1", len(summaries))
	}
	s := summaries[0]
	if s.Precision.N != 1 || s.Precision.Mean != want.Precision {
		t.Fatalf("summary precision %+v, want mean %g", s.Precision, want.Precision)
	}
	if want.ReductionFactor != nil && s.Reduction.Mean != *want.ReductionFactor {
		t.Fatalf("summary reduction %+v, want %g", s.Reduction, *want.ReductionFactor)
	}
	if s.Precision.CI95 != 0 {
		t.Fatalf("single-seed CI must be 0, got %g", s.Precision.CI95)
	}
}

// TestRunAggregatesSeeds runs one cell over three seeds on two workers and
// checks the multi-seed statistics. A second cell at alpha 1000 records no
// window on any seed: its reduction is undefined on every seed, not
// FullBytes over the recording's header.
func TestRunAggregatesSeeds(t *testing.T) {
	g := tinyGrid()
	g.Seeds = []int64{1, 2, 3}
	g.Alphas = append(g.Alphas, 1000)

	var results int
	summaries, err := Run(g, RunOptions{Workers: 2, OnResult: func(r Result) {
		if r.Err != nil {
			t.Errorf("job error: %v", r.Err)
		}
		results++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if results != 6 {
		t.Fatalf("observed %d results, want 6", results)
	}
	if len(summaries) != 2 {
		t.Fatalf("%d summaries, want 2", len(summaries))
	}
	if u := summaries[1]; u.Alpha != 1000 || u.UnrecordedSeeds != len(g.Seeds) || u.Reduction.N != 0 {
		t.Fatalf("alpha %g cell: %d unrecorded seeds, reduction over %d seeds; want alpha 1000, %d and 0",
			u.Alpha, u.UnrecordedSeeds, u.Reduction.N, len(g.Seeds))
	}
	s := summaries[0]
	if !reflect.DeepEqual(s.Seeds, []int64{1, 2, 3}) {
		t.Fatalf("seeds %v", s.Seeds)
	}
	if s.Precision.N != 3 || s.Recall.N != 3 {
		t.Fatalf("metric N %d/%d, want 3", s.Precision.N, s.Recall.N)
	}
	for _, m := range []Metric{s.Precision, s.Recall, s.Reduction} {
		if m.Mean < m.Min || m.Mean > m.Max {
			t.Fatalf("mean %g outside [%g, %g]", m.Mean, m.Min, m.Max)
		}
		if m.CI95 < 0 {
			t.Fatalf("negative CI %g", m.CI95)
		}
	}
	if s.TotalPerturbations != 3 { // one perturbation per seed's schedule
		t.Fatalf("total perturbations %d, want 3", s.TotalPerturbations)
	}
	if s.Windows <= 0 || s.FullBytes <= 0 {
		t.Fatalf("degenerate totals: %+v", s)
	}

	// Summaries marshal cleanly (the BENCH_sweep.json shape).
	raw, err := json.Marshal(summaries)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"distance", "alpha", "factor", "k", "seeds",
		"reduction", "precision", "recall", "delta_s_ms", "delta_e_ms"} {
		if _, ok := decoded[0][key]; !ok {
			t.Fatalf("summary JSON missing %q", key)
		}
	}
}

// TestRunFoldsInJobOrder: the summaries do not depend on how many workers
// ran the jobs or in which order they finished — every float is
// bit-identical at one worker and at four.
func TestRunFoldsInJobOrder(t *testing.T) {
	g := tinyGrid()
	g.Seeds = []int64{1, 2, 3, 4}
	one, err := Run(g, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(g, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("summaries differ between 1 and 4 workers:\n%+v\n%+v", one, four)
	}
	for i := range one {
		a, b := one[i], four[i]
		for _, m := range [][2]Metric{{a.Reduction, b.Reduction}, {a.Precision, b.Precision},
			{a.Recall, b.Recall}, {a.DeltaSMs, b.DeltaSMs}, {a.DeltaEMs, b.DeltaEMs}} {
			for _, f := range [][2]float64{{m[0].Mean, m[1].Mean}, {m[0].CI95, m[1].CI95},
				{m[0].Min, m[1].Min}, {m[0].Max, m[1].Max}} {
				if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
					t.Fatalf("cell %s: %v at 1 worker, %v at 4", a.Cell, f[0], f[1])
				}
			}
		}
	}
}

func TestSortSummaries(t *testing.T) {
	ss := []CellSummary{
		{Cell: Cell{Distance: "a"}, Reduction: Metric{Mean: 2}, DeltaSMs: Metric{Mean: 30, N: 2}},
		{Cell: Cell{Distance: "b"}, Reduction: Metric{Mean: 5}, DeltaSMs: Metric{Mean: 10, N: 2}},
		{Cell: Cell{Distance: "c"}, Reduction: Metric{Mean: 3}, DeltaSMs: Metric{Mean: 20, N: 2}},
		// d detected nothing: its zero-valued latency metric must sort
		// last, not as a perfect 0 ms.
		{Cell: Cell{Distance: "d"}, Reduction: Metric{Mean: 1}, DeltaSMs: Metric{Mean: 0, N: 0}},
	}
	if err := SortSummaries(ss, "reduction"); err != nil {
		t.Fatal(err)
	}
	if ss[0].Distance != "b" || ss[3].Distance != "d" {
		t.Fatalf("reduction sort order: %s %s %s %s", ss[0].Distance, ss[1].Distance, ss[2].Distance, ss[3].Distance)
	}
	if err := SortSummaries(ss, "delta_s"); err != nil {
		t.Fatal(err)
	}
	if ss[0].Distance != "b" || ss[2].Distance != "a" || ss[3].Distance != "d" {
		t.Fatalf("delta_s sort order: %s %s %s %s", ss[0].Distance, ss[1].Distance, ss[2].Distance, ss[3].Distance)
	}
	if err := SortSummaries(ss, "nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

// TestSharedModelAcrossAlphaCells: cells that differ only in alpha share
// one learned model per (seed, distance, K), concurrently — the result of
// every cell must still byte-match a standalone eval.Run that learns its
// own model, because learning is deterministic and alpha plays no part
// in it. Run under -race this also exercises the shared immutable model
// from multiple monitoring goroutines.
func TestSharedModelAcrossAlphaCells(t *testing.T) {
	g := tinyGrid()
	g.Alphas = []float64{2.0, 2.5, 3.0}

	reports := make(map[float64]*eval.Report)
	_, err := Run(g, RunOptions{Workers: 3, OnResult: func(r Result) {
		if r.Err != nil {
			t.Errorf("job error: %v", r.Err)
			return
		}
		reports[r.Job.Cell.Alpha] = r.Report
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d cell reports, want 3", len(reports))
	}

	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		opts, err := g.Options(j)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(reports[j.Cell.Alpha])
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("alpha %g: shared-model sweep differs from standalone eval:\n%s\n%s",
				j.Cell.Alpha, gotJSON, wantJSON)
		}
	}
}
