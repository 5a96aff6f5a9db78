package eval

import (
	"time"

	"enduratrace/internal/perturb"
	"enduratrace/internal/stats"
)

// Scorer scores monitor decisions against a ground-truth perturbation
// schedule incrementally: decisions are consumed one at a time, in window
// order, and only O(len(truth)) state is retained. This is what lets an
// endurance-length run (the paper's 6 h 17 m scale) be scored in constant
// memory instead of holding every window decision in a slice.
//
// Semantics match the original batch scorer: an anomalous window is
// credited to the first ground-truth interval whose effect region (the
// interval extended by slack, clipped at the next interval's start) it
// overlaps; windows starting before warmup are ignored entirely.
type Scorer struct {
	truth  []perturb.Interval
	effect []perturb.Interval
	slack  time.Duration
	warmup time.Duration

	// cursor indexes the first effect interval whose end is still ahead of
	// the decision stream; it only moves forward, making Observe O(1)
	// amortised.
	cursor int

	tp, fp, truthPos int
	firstAnom        []time.Duration
	lastAnom         []time.Duration
	counts           []int
}

// NewScorer builds a scorer for the ground-truth schedule. truth must be
// sorted by start and non-overlapping (perturb.Periodic's output);
// decisions must subsequently be observed in non-decreasing window-start
// order, which is how the monitor emits them.
func NewScorer(truth []perturb.Interval, slack, warmup time.Duration) *Scorer {
	s := &Scorer{
		truth:     truth,
		effect:    make([]perturb.Interval, len(truth)),
		slack:     slack,
		warmup:    warmup,
		firstAnom: make([]time.Duration, len(truth)),
		lastAnom:  make([]time.Duration, len(truth)),
		counts:    make([]int, len(truth)),
	}
	// effect[i] is the region in which anomalous windows are credited to
	// truth[i]: the interval plus trailing slack, clipped at the next
	// interval's start so detections are attributed unambiguously.
	for i, iv := range truth {
		end := iv.End + slack
		if i+1 < len(truth) && end > truth[i+1].Start {
			end = truth[i+1].Start
		}
		s.effect[i] = perturb.Interval{Start: iv.Start, End: end}
	}
	for i := range s.firstAnom {
		s.firstAnom[i] = -1
	}
	return s
}

// Observe folds one window decision into the score.
func (s *Scorer) Observe(start, end time.Duration, anomalous bool) {
	if start < s.warmup {
		return
	}
	for s.cursor < len(s.effect) && s.effect[s.cursor].End <= start {
		s.cursor++
	}
	hit := -1
	if s.cursor < len(s.effect) {
		iv := s.effect[s.cursor]
		if start < iv.End && iv.Start < end {
			hit = s.cursor
		}
	}
	if hit >= 0 {
		s.truthPos++
	}
	if !anomalous {
		return
	}
	if hit < 0 {
		s.fp++
		return
	}
	s.tp++
	s.counts[hit]++
	if s.firstAnom[hit] < 0 {
		s.firstAnom[hit] = start
	}
	s.lastAnom[hit] = end
}

// Finish fills the precision/recall and per-perturbation Δs/Δe fields of
// rep from everything observed so far.
func (s *Scorer) Finish(rep *Report) {
	rep.ScoredAnomalousWindows = s.tp + s.fp
	rep.TruthWindows = s.truthPos
	if s.tp+s.fp > 0 {
		rep.Precision = float64(s.tp) / float64(s.tp+s.fp)
	}
	if s.truthPos > 0 {
		rep.Recall = float64(s.tp) / float64(s.truthPos)
	}

	rep.TotalPerturbations = len(s.truth)
	var dss, des stats.Running
	for i, iv := range s.truth {
		p := Perturbation{StartS: iv.Start.Seconds(), EndS: iv.End.Seconds(), Windows: s.counts[i]}
		if s.counts[i] > 0 {
			p.Detected = true
			rep.DetectedPerturbations++
			ds := (s.firstAnom[i] - iv.Start).Seconds() * 1000
			if ds < 0 {
				ds = 0 // the first anomalous window straddles the onset
			}
			de := (s.lastAnom[i] - iv.End).Seconds() * 1000
			p.DeltaSMs = &ds
			p.DeltaEMs = &de
			dss.Add(ds)
			des.Add(de)
		}
		rep.Perturbations = append(rep.Perturbations, p)
	}
	if dss.N() > 0 {
		rep.MeanDeltaSMs = dss.Mean()
		rep.MeanDeltaEMs = des.Mean()
	}
}
