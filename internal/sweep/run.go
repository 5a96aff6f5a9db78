package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/eval"
)

// RunOptions tunes sweep execution.
type RunOptions struct {
	// Workers bounds the number of concurrent eval runs; <= 0 means
	// GOMAXPROCS.
	Workers int
	// OnResult, when non-nil, observes every job result as it completes
	// (in completion order, which is nondeterministic). Calls are
	// serialised with the aggregation, so it needs no locking of its own.
	OnResult func(Result)
}

// Result is one finished job.
type Result struct {
	Job     Job
	Report  *eval.Report
	Err     error
	Elapsed time.Duration
}

// learnKey identifies the learning-relevant job axes: alpha and factor
// play no part in the learning step (alpha only thresholds monitoring,
// and the reference run is always clean), so every job agreeing on seed,
// distance and K shares one immutable learned model.
type learnKey struct {
	Seed     int64
	Distance string
	K        int
}

// learnEntry is the once-guarded slot of one shared model: the first
// worker to need the key learns it, concurrent workers for other cells
// block on the Once and then monitor their own streams against the same
// in-memory model, as serve runs one Monitor per stream over one Learned.
type learnEntry struct {
	once sync.Once
	l    *core.Learned
	err  error
}

// Run expands the grid, executes every job on a bounded worker pool, and
// streams the results into per-cell summaries, which come back in grid
// order. Reports are folded in job order, whatever order the workers
// finish in, so the summaries do not depend on Workers; each is dropped
// once folded, so memory is O(cells) plus the reports that finished ahead
// of a slower earlier job, not O(jobs). When jobs fail, the remaining jobs still run and
// the joined errors are returned alongside the summaries of the cells
// that did complete.
//
// Jobs that share their learning configuration (same seed, distance and
// K — e.g. an alpha or factor axis) learn once and share the fitted model
// across concurrent workers; learning is deterministic per key, so the
// results are identical to learning per job, just cheaper.
func Run(g Grid, opts RunOptions) ([]CellSummary, error) {
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Pre-register every learn key so workers only read the map.
	models := make(map[learnKey]*learnEntry)
	for _, j := range jobs {
		key := learnKey{Seed: j.Seed, Distance: j.Cell.Distance, K: j.Cell.K}
		if models[key] == nil {
			models[key] = &learnEntry{}
		}
	}

	jobCh := make(chan Job)
	resCh := make(chan Result)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				start := time.Now()
				var res Result
				res.Job = j
				o, err := g.Options(j)
				if err == nil {
					entry := models[learnKey{Seed: j.Seed, Distance: j.Cell.Distance, K: j.Cell.K}]
					entry.once.Do(func() {
						entry.l, entry.err = eval.Learn(o)
					})
					if err = entry.err; err == nil {
						res.Report, err = eval.RunWithLearned(o, entry.l)
					}
				}
				if err != nil {
					res.Err = fmt.Errorf("sweep: job %d (%s seed %d): %w", j.Index, j.Cell, j.Seed, err)
				}
				res.Elapsed = time.Since(start)
				resCh <- res
			}
		}()
	}
	go func() {
		for _, j := range jobs {
			jobCh <- j
		}
		close(jobCh)
		wg.Wait()
		close(resCh)
	}()

	agg := NewAggregator(g.Cells())
	var errs []error
	// Fold in job order, not completion order: a cell's running mean and
	// variance change in the last ulp with the order of their inputs, so
	// folding as workers finish made the summaries depend on scheduling.
	// done holds the results that finished ahead of the next job to fold.
	done := make(map[int]Result)
	next := 0
	for res := range resCh {
		if opts.OnResult != nil {
			opts.OnResult(res)
		}
		done[res.Job.Index] = res
		for r, ok := done[next]; ok; r, ok = done[next] {
			delete(done, next)
			next++
			if r.Err != nil {
				errs = append(errs, r.Err)
			} else {
				agg.Add(r.Job.Cell, r.Job.Seed, r.Report)
			}
		}
	}
	return agg.Summaries(), errors.Join(errs...)
}
