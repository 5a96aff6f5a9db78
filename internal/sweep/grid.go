// Package sweep is the batch-experiment subsystem: a Grid expands
// parameter axes (distance × alpha × perturbation factor × K × seeds)
// into a deterministic job list, a bounded worker pool runs the jobs in
// parallel (each eval.Run is independent and seeded), and a streaming
// Aggregator folds per-seed eval.Reports into per-cell summaries with
// multi-seed 95% confidence intervals.
//
// It is what turns the repo from a one-shot reproduction of the paper's
// §III experiment into a benchmark machine: `enduratrace sweep` is a thin
// CLI wrapper around this package.
package sweep

import (
	"fmt"
	"time"

	"enduratrace/internal/distance"
	"enduratrace/internal/eval"
)

// RunSeedOffset is the reference↔run stream separation used by sweeps.
// Sweeps enumerate adjacent seeds (s, s+1, ...), so the single-experiment
// offset of 1 would make seed s's perturbed run replay seed s+1's
// reference stream; a giant offset keeps every stream distinct.
const RunSeedOffset = 1 << 32

// Grid is a batch-experiment specification: the cross product of the axis
// slices, run once per seed, every cell sharing Base for everything the
// axes don't override.
type Grid struct {
	// Base supplies durations, the perturbation schedule and the monitor
	// configuration. Axis values overwrite Base's seed, factor, alpha, K
	// and both distances per job.
	Base eval.Options

	// Distances lists distance-catalogue names applied to both the gate
	// and the LOF model (the A-distance ablation axis).
	Distances []string
	// Alphas lists LOF anomaly thresholds.
	Alphas []float64
	// Factors lists CPU perturbation slowdown factors.
	Factors []float64
	// Ks lists LOF neighbourhood sizes.
	Ks []int
	// Seeds lists experiment seeds; every cell runs once per seed.
	Seeds []int64
}

// Cell identifies one parameter combination — every axis except the seed.
type Cell struct {
	Distance string  `json:"distance"`
	Alpha    float64 `json:"alpha"`
	Factor   float64 `json:"factor"`
	K        int     `json:"k"`
}

func (c Cell) String() string {
	return fmt.Sprintf("%s α=%g f=%g k=%d", c.Distance, c.Alpha, c.Factor, c.K)
}

// Job is one (cell, seed) experiment. Index is the job's position in the
// deterministic expansion order.
type Job struct {
	Index int
	Cell  Cell
	Seed  int64
}

// DefaultGrid returns the default distance-ablation sweep: both catalogue
// distances, the shipped symkl and the paper's literal kl, crossed with
// the tuned alpha / factor / K from eval.DefaultOptions, at CI-sized
// durations (a 40 s reference run and a 2-minute perturbed run with two
// factor-3 perturbations), over seeds 1..nSeeds. Compare the two at
// matched recall, over an alpha axis (DESIGN.md, "A-distance ablation"):
// at one alpha the comparison is fair to neither.
func DefaultGrid(nSeeds int) Grid {
	base := eval.DefaultOptions()
	base.RefDuration = 40 * time.Second
	base.RunDuration = 2 * time.Minute
	base.Schedule.First = 30 * time.Second
	base.Schedule.Period = 50 * time.Second
	base.Schedule.Duration = 15 * time.Second
	base.RunSeedOffset = RunSeedOffset
	seeds := make([]int64, nSeeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return Grid{
		Base:      base,
		Distances: []string{"symkl", "kl"},
		Alphas:    []float64{base.Core.Alpha},
		Factors:   []float64{base.Schedule.Factor},
		Ks:        []int{base.Core.K},
		Seeds:     seeds,
	}
}

// Validate reports specification errors: empty or duplicated axes, unknown
// distance names, non-positive K.
func (g Grid) Validate() error {
	if len(g.Distances) == 0 || len(g.Alphas) == 0 || len(g.Factors) == 0 ||
		len(g.Ks) == 0 || len(g.Seeds) == 0 {
		return fmt.Errorf("sweep: every axis needs at least one value (distances=%d alphas=%d factors=%d ks=%d seeds=%d)",
			len(g.Distances), len(g.Alphas), len(g.Factors), len(g.Ks), len(g.Seeds))
	}
	seenD := make(map[string]bool, len(g.Distances))
	for _, name := range g.Distances {
		if _, err := distance.ByName(name); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if seenD[name] {
			return fmt.Errorf("sweep: duplicate distance %q", name)
		}
		seenD[name] = true
	}
	seenF := make(map[float64]bool)
	for _, a := range g.Alphas {
		if seenF[a] {
			return fmt.Errorf("sweep: duplicate alpha %g", a)
		}
		seenF[a] = true
	}
	seenF = make(map[float64]bool)
	for _, f := range g.Factors {
		if seenF[f] {
			return fmt.Errorf("sweep: duplicate factor %g", f)
		}
		seenF[f] = true
	}
	seenK := make(map[int]bool)
	for _, k := range g.Ks {
		if k <= 0 {
			return fmt.Errorf("sweep: K must be positive, got %d", k)
		}
		if seenK[k] {
			return fmt.Errorf("sweep: duplicate K %d", k)
		}
		seenK[k] = true
	}
	seenS := make(map[int64]bool)
	for _, s := range g.Seeds {
		if seenS[s] {
			return fmt.Errorf("sweep: duplicate seed %d", s)
		}
		seenS[s] = true
	}
	return nil
}

// Cells expands the axes into the deterministic cell order: distance
// outermost, then alpha, factor, K.
func (g Grid) Cells() []Cell {
	cells := make([]Cell, 0, len(g.Distances)*len(g.Alphas)*len(g.Factors)*len(g.Ks))
	for _, d := range g.Distances {
		for _, a := range g.Alphas {
			for _, f := range g.Factors {
				for _, k := range g.Ks {
					cells = append(cells, Cell{Distance: d, Alpha: a, Factor: f, K: k})
				}
			}
		}
	}
	return cells
}

// Jobs expands the grid into its deterministic job list: cells in Cells
// order, each crossed with every seed in Seeds order.
func (g Grid) Jobs() ([]Job, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells := g.Cells()
	jobs := make([]Job, 0, len(cells)*len(g.Seeds))
	for _, c := range cells {
		for _, s := range g.Seeds {
			jobs = append(jobs, Job{Index: len(jobs), Cell: c, Seed: s})
		}
	}
	return jobs, nil
}

// Options materialises the eval configuration for one job: Base with the
// job's seed and cell axes applied.
func (g Grid) Options(j Job) (eval.Options, error) {
	o := g.Base
	d, err := distance.ByName(j.Cell.Distance)
	if err != nil {
		return o, fmt.Errorf("sweep: %w", err)
	}
	o.Seed = j.Seed
	o.Schedule.Factor = j.Cell.Factor
	o.Core.Alpha = j.Cell.Alpha
	o.Core.K = j.Cell.K
	o.Core.GateDistance = d
	o.Core.LOFDistance = d
	return o, nil
}
