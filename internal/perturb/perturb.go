// Package perturb models the CPU-contention perturbations of the paper's
// experiment (§III): every 3 minutes a heavy processing application runs
// for 20 s, stealing cycles from the single core the pipeline is pinned to.
//
// A Load is a piecewise-constant time-varying slowdown factor: factor 1
// means the pipeline runs at full speed, factor F > 1 means every unit of
// CPU work takes F times longer. Piecewise constancy lets the simulator
// integrate service times exactly across load changes.
package perturb

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Horizon is the sentinel returned by NextChange when the load never
// changes again.
const Horizon = time.Duration(math.MaxInt64)

// Load is a piecewise-constant slowdown profile.
type Load interface {
	// FactorAt returns the slowdown factor (>= 1) in effect at time t.
	FactorAt(t time.Duration) float64
	// NextChange returns the earliest time strictly after t at which the
	// factor changes, or Horizon if it never does.
	NextChange(t time.Duration) time.Duration
}

// Interval is a half-open time span [Start, End).
type Interval struct {
	Start, End time.Duration
}

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t time.Duration) bool { return t >= iv.Start && t < iv.End }

// Duration returns End - Start.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

func (iv Interval) String() string { return fmt.Sprintf("[%v,%v)", iv.Start, iv.End) }

// None is the identity load: no perturbation, factor 1 everywhere.
type None struct{}

// FactorAt implements Load.
func (None) FactorAt(time.Duration) float64 { return 1 }

// NextChange implements Load.
func (None) NextChange(time.Duration) time.Duration { return Horizon }

// Intervals applies a constant slowdown factor inside each of a fixed list
// of disjoint, sorted intervals and factor 1 elsewhere.
type Intervals struct {
	Factor float64
	Spans  []Interval
}

// NewIntervals validates and returns an interval load. Spans must be
// disjoint and sorted by start; Factor must be finite and >= 1.
func NewIntervals(factor float64, spans []Interval) (*Intervals, error) {
	// Negated so that NaN, which fails every comparison, is refused; the
	// upper bound refuses +Inf, under which no simulated work would finish.
	if !(factor >= 1 && factor <= math.MaxFloat64) {
		return nil, fmt.Errorf("perturb: factor %g must be finite and >= 1", factor)
	}
	for i, s := range spans {
		if s.End <= s.Start {
			return nil, fmt.Errorf("perturb: span %d %v is empty or inverted", i, s)
		}
		if i > 0 && s.Start < spans[i-1].End {
			return nil, fmt.Errorf("perturb: span %d %v overlaps span %d %v", i, s, i-1, spans[i-1])
		}
	}
	return &Intervals{Factor: factor, Spans: spans}, nil
}

// FactorAt implements Load.
func (l *Intervals) FactorAt(t time.Duration) float64 {
	if _, ok := l.find(t); ok {
		return l.Factor
	}
	return 1
}

// find returns the index of the span containing t.
func (l *Intervals) find(t time.Duration) (int, bool) {
	i := sort.Search(len(l.Spans), func(i int) bool { return l.Spans[i].End > t })
	if i < len(l.Spans) && l.Spans[i].Contains(t) {
		return i, true
	}
	return i, false
}

// NextChange implements Load.
func (l *Intervals) NextChange(t time.Duration) time.Duration {
	i, inside := l.find(t)
	if inside {
		return l.Spans[i].End
	}
	if i < len(l.Spans) {
		return l.Spans[i].Start
	}
	return Horizon
}

// Periodic builds the paper's schedule: perturbations of the given duration
// starting at first and repeating every period until horizon. factor is the
// slowdown while active.
func Periodic(factor float64, first, period, duration, horizon time.Duration) (*Intervals, error) {
	if period <= 0 {
		return nil, fmt.Errorf("perturb: period %v must be positive", period)
	}
	if duration <= 0 || duration >= period {
		return nil, fmt.Errorf("perturb: duration %v must be in (0, period=%v)", duration, period)
	}
	var spans []Interval
	for start := first; start < horizon; start += period {
		end := start + duration
		if end > horizon {
			end = horizon
		}
		spans = append(spans, Interval{Start: start, End: end})
	}
	return NewIntervals(factor, spans)
}

// Schedule is a periodic perturbation plan: a slowdown of Factor for
// Duration, every Period from First on. It is the one description of a
// run's perturbations that sim, eval and sweep build their load from.
type Schedule struct {
	// Factor is the slowdown while a perturbation is active; 1 or less
	// means no perturbation at all.
	Factor                  float64
	First, Period, Duration time.Duration
}

// Load returns the schedule's load over [0, horizon) and its intervals,
// the run's ground truth: None and no interval when Factor <= 1,
// Periodic's otherwise.
func (s Schedule) Load(horizon time.Duration) (Load, []Interval, error) {
	if s.Factor <= 1 {
		return None{}, nil, nil
	}
	ivs, err := Periodic(s.Factor, s.First, s.Period, s.Duration, horizon)
	if err != nil {
		return nil, nil, err
	}
	return ivs, ivs.Spans, nil
}

// Paper returns the exact perturbation schedule of §III: a heavy load every
// 3 minutes for 20 s, starting 180 s after the 300 s reference period. The
// slowdown factor is the one free parameter (the paper does not quantify
// its hog's intensity).
func Paper(factor float64) Schedule {
	return Schedule{Factor: factor, First: 300*time.Second + 180*time.Second, Period: 180 * time.Second, Duration: 20 * time.Second}
}

// WorkFinish integrates a piecewise-constant load: starting work at t0 with
// w seconds of CPU-time demand, it returns the wall-clock completion time.
// This is the service-time primitive every simulated server uses.
func WorkFinish(l Load, t0 time.Duration, w time.Duration) time.Duration {
	t := t0
	remaining := float64(w) // CPU-nanoseconds of demand
	for remaining > 0 {
		f := l.FactorAt(t)
		if f < 1 {
			f = 1
		}
		change := l.NextChange(t)
		if change == Horizon {
			return t + time.Duration(remaining*f)
		}
		span := float64(change - t)
		capacity := span / f // CPU-ns deliverable before the change
		if capacity >= remaining {
			return t + time.Duration(remaining*f)
		}
		remaining -= capacity
		t = change
	}
	return t
}
