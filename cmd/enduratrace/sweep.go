package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"enduratrace/internal/sweep"
)

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad int %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// metricCell renders one mean ± CI table cell; a metric no seed
// contributed to (N == 0, e.g. reduction when nothing was recorded)
// renders as n/a rather than masquerading as a measured zero.
func metricCell(m sweep.Metric, prec, meanW, ciW int) string {
	if m.N == 0 {
		return fmt.Sprintf("%*s %*s", meanW, "n/a", ciW+1, "")
	}
	return fmt.Sprintf("%*.*f ±%-*.*f", meanW, prec, m.Mean, ciW, prec, m.CI95)
}

func cmdSweep(args []string) error {
	fs := newFlagSet("sweep")
	g := sweep.DefaultGrid(3)
	seeds := fs.Int("seeds", len(g.Seeds), "number of seeds per cell (seed-base, seed-base+1, ...)")
	seedBase := fs.Int64("seed-base", 1, "first seed")
	distances := fs.String("distances", strings.Join(g.Distances, ","), "comma-separated distance axis (gate and LOF)")
	alphas := fs.String("alphas", "", "comma-separated LOF alpha axis (default: the tuned alpha)")
	factors := fs.String("factors", "", "comma-separated perturbation factor axis (default: the tuned factor)")
	ks := fs.String("ks", "", "comma-separated LOF K axis (default: the tuned K)")
	fs.DurationVar(&g.Base.RefDuration, "ref-duration", g.Base.RefDuration, "clean reference run length per job")
	fs.DurationVar(&g.Base.RunDuration, "run-duration", g.Base.RunDuration, "perturbed monitored run length per job")
	scheduleFlags(fs, &g.Base.Schedule)
	applyGate := gateFlags(fs, g.Base.Core)
	workers := fs.Int("workers", 0, "parallel eval workers (0 = GOMAXPROCS)")
	out := fs.String("out", "BENCH_sweep.json", "write the per-cell summary array here ('' to skip)")
	sortBy := fs.String("sort", "reduction", fmt.Sprintf("summary table sort metric, one of %v", sweep.SortKeys()))
	quiet := fs.Bool("q", false, "suppress per-job progress lines")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := applyGate(&g.Base.Core); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if *seeds <= 0 {
		return fmt.Errorf("sweep: -seeds must be positive, got %d", *seeds)
	}
	g.Seeds = make([]int64, *seeds)
	for i := range g.Seeds {
		g.Seeds[i] = *seedBase + int64(i)
	}
	g.Distances = strings.Split(*distances, ",")
	for i := range g.Distances {
		g.Distances[i] = strings.TrimSpace(g.Distances[i])
	}
	var err error
	if *alphas != "" {
		if g.Alphas, err = parseFloats(*alphas); err != nil {
			return fmt.Errorf("sweep: -alphas: %w", err)
		}
	}
	if *factors != "" {
		if g.Factors, err = parseFloats(*factors); err != nil {
			return fmt.Errorf("sweep: -factors: %w", err)
		}
	}
	if *ks != "" {
		if g.Ks, err = parseInts(*ks); err != nil {
			return fmt.Errorf("sweep: -ks: %w", err)
		}
	}

	jobs, err := g.Jobs()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells × %d seeds = %d jobs (%v run each)\n",
		len(g.Cells()), len(g.Seeds), len(jobs), g.Base.RunDuration)

	start := time.Now()
	var done int
	summaries, err := sweep.Run(g, sweep.RunOptions{
		Workers: *workers,
		OnResult: func(r sweep.Result) {
			done++
			if *quiet {
				return
			}
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "sweep: [%d/%d] FAILED: %v\n", done, len(jobs), r.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s seed %d: reduction %s, precision %.3f, recall %.3f (%.1fs)\n",
				done, len(jobs), r.Job.Cell, r.Job.Seed,
				reductionString(r.Report.ReductionFactor),
				r.Report.Precision, r.Report.Recall, r.Elapsed.Seconds())
		},
	})
	// Even when jobs failed, the completed cells' summaries still get
	// printed and written (sweep.Run finishes the surviving jobs); the
	// joined error is reported at the end.
	if serr := sweep.SortSummaries(summaries, *sortBy); serr != nil {
		return serr
	}
	fmt.Fprintf(os.Stderr, "sweep: %d jobs in %.1fs wall, sorted by %s:\n",
		len(jobs), time.Since(start).Seconds(), *sortBy)
	fmt.Fprintf(os.Stderr, "sweep: %-10s %5s %4s %3s  %-16s %-15s %-15s %-14s %-14s %s\n",
		"distance", "alpha", "f", "k", "reduction", "precision", "recall", "Δs ms", "Δe ms", "det")
	for _, s := range summaries {
		fmt.Fprintf(os.Stderr, "sweep: %-10s %5g %4g %3d  %s %s %s %s %s %d/%d\n",
			s.Distance, s.Alpha, s.Factor, s.K,
			metricCell(s.Reduction, 1, 6, 7),
			metricCell(s.Precision, 3, 6, 6),
			metricCell(s.Recall, 3, 6, 6),
			metricCell(s.DeltaSMs, 0, 6, 5),
			metricCell(s.DeltaEMs, 0, 6, 5),
			s.DetectedPerturbations, s.TotalPerturbations)
	}
	if jerr := emitJSON(summaries, *out); jerr != nil {
		return jerr
	}
	return err
}
