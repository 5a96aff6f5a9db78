// Package sweep is the batch-experiment subsystem: a Grid expands
// parameter axes (distance × alpha × perturbation factor × K × seeds)
// into a deterministic job list, a bounded worker pool runs the jobs in
// parallel (each eval.Run is independent and seeded), and a streaming
// Aggregator folds per-seed eval.Reports into per-cell summaries with
// multi-seed 95% confidence intervals. Soak runs one arbitrarily long
// cell with periodic progress in constant memory.
//
// It is what turns the repo from a one-shot reproduction of the paper's
// §III experiment into a benchmark machine: `enduratrace sweep` and
// `enduratrace soak` are thin CLI wrappers around this package.
package sweep

import (
	"bytes"
	"encoding/json"
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
	Base eval.Options `json:"-"`

	// Distances lists distance-catalogue names applied to both the gate
	// and the LOF model (the A-distance ablation axis).
	Distances []string `json:"distances"`
	// Alphas lists LOF anomaly thresholds.
	Alphas []float64 `json:"alphas"`
	// Factors lists CPU perturbation slowdown factors.
	Factors []float64 `json:"factors"`
	// Ks lists LOF neighbourhood sizes.
	Ks []int `json:"ks"`
	// Seeds lists experiment seeds; every cell runs once per seed.
	Seeds []int64 `json:"seeds"`
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
	base.PerturbFirst = 30 * time.Second
	base.PerturbPeriod = 50 * time.Second
	base.PerturbDuration = 15 * time.Second
	base.RunSeedOffset = RunSeedOffset
	seeds := make([]int64, nSeeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return Grid{
		Base:      base,
		Distances: []string{"symkl", "kl"},
		Alphas:    []float64{base.Core.Alpha},
		Factors:   []float64{base.Factor},
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
	o.Factor = j.Cell.Factor
	o.Core.Alpha = j.Cell.Alpha
	o.Core.K = j.Cell.K
	o.Core.GateDistance = d
	o.Core.LOFDistance = d
	return o, nil
}

// gridFile is the JSON shape accepted by ParseGrid: the axis slices plus
// optional Go-syntax duration overrides for the base experiment.
type gridFile struct {
	Distances []string  `json:"distances"`
	Alphas    []float64 `json:"alphas"`
	Factors   []float64 `json:"factors"`
	Ks        []int     `json:"ks"`
	Seeds     []int64   `json:"seeds"`

	RefDuration     string `json:"ref_duration,omitempty"`
	RunDuration     string `json:"run_duration,omitempty"`
	PerturbFirst    string `json:"perturb_first,omitempty"`
	PerturbPeriod   string `json:"perturb_period,omitempty"`
	PerturbDuration string `json:"perturb_duration,omitempty"`
	Slack           string `json:"slack,omitempty"`
	Warmup          string `json:"warmup,omitempty"`
}

// ParseGrid decodes a JSON grid specification onto base: non-empty axis
// arrays replace base's (the result keeps def's axes for ones the file
// omits), and duration fields ("40s", "2m", ...) override the base
// experiment shape. Unknown keys are rejected — a misspelled axis must
// not silently run the default experiment.
func ParseGrid(data []byte, def Grid) (Grid, error) {
	var f gridFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Grid{}, fmt.Errorf("sweep: parsing grid file: %w", err)
	}
	g := def
	if len(f.Distances) > 0 {
		g.Distances = f.Distances
	}
	if len(f.Alphas) > 0 {
		g.Alphas = f.Alphas
	}
	if len(f.Factors) > 0 {
		g.Factors = f.Factors
	}
	if len(f.Ks) > 0 {
		g.Ks = f.Ks
	}
	if len(f.Seeds) > 0 {
		g.Seeds = f.Seeds
	}
	for _, d := range []struct {
		raw string
		dst *time.Duration
	}{
		{f.RefDuration, &g.Base.RefDuration},
		{f.RunDuration, &g.Base.RunDuration},
		{f.PerturbFirst, &g.Base.PerturbFirst},
		{f.PerturbPeriod, &g.Base.PerturbPeriod},
		{f.PerturbDuration, &g.Base.PerturbDuration},
		{f.Slack, &g.Base.Slack},
		{f.Warmup, &g.Base.Warmup},
	} {
		if d.raw == "" {
			continue
		}
		v, err := time.ParseDuration(d.raw)
		if err != nil {
			return Grid{}, fmt.Errorf("sweep: parsing grid file duration: %w", err)
		}
		*d.dst = v
	}
	return g, g.Validate()
}
