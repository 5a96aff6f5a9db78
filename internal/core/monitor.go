// Package core implements the paper's primary contribution (§II): an online
// monitor that watches a multimedia application's trace stream and records
// only the windows whose behaviour departs from a learned model of correct
// execution.
//
// The monitor processes one window at a time:
//
//  1. the window is summarised as a pmf over event types (package pmf);
//  2. a cheap Kullback–Leibler gate compares the window pmf Npmf with the
//     running past pmf Ppmf; if they are similar, Npmf is merged into Ppmf
//     (tracking slow drift) and no further work happens. Where the gate
//     distance has a log-free upper bound (distance.Distance.Upper, set
//     for symkl), a window whose bound is at or under the threshold is
//     quiet without the exact distance being computed; every other window
//     computes it and trips when it is above the threshold, so every
//     decision is the exact gate's;
//  3. if the gate trips, the window is scored with LOF against the model
//     learned from a reference trace; LOF >= alpha flags an anomaly and the
//     window is recorded.
//
// Each decision is one obs.Verdict, which Decision embeds and every
// consumer downstream (alerts, the anomaly store, the flight recorder,
// replay) carries and encodes as it is.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"enduratrace/internal/distance"
	"enduratrace/internal/lof"
	"enduratrace/internal/obs"
	"enduratrace/internal/pmf"
	"enduratrace/internal/recorder"
	"enduratrace/internal/stats"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// Config carries every tunable of the approach. NewConfig supplies the
// shipped values.
type Config struct {
	// NumTypes is the pmf dimensionality (one component per event type).
	NumTypes int
	// WindowDuration slices the stream into fixed time windows (40 ms in
	// §III).
	WindowDuration time.Duration
	// K is the LOF neighbourhood size (20 in §III).
	K int
	// Alpha is the LOF anomaly threshold; LOF >= Alpha records the window
	// (1.2 in the headline result).
	Alpha float64
	// GateThreshold is the KL distance above which the gate trips and a
	// LOF computation is performed.
	GateThreshold float64
	// GateDistance compares Npmf with Ppmf; the paper uses
	// Kullback–Leibler. Defaults to the "symkl" catalogue entry.
	GateDistance distance.Distance
	// LOFDistance is the dissimilarity for the LOF model. Defaults to the
	// same KL family ("symkl").
	LOFDistance distance.Distance
	// MergeLambda is the weight of the new window when merging Npmf into
	// Ppmf on a quiet gate, in (0, 1].
	MergeLambda float64
	// Smoothing is the additive smoothing epsilon applied when normalising
	// window counts to pmfs; it keeps KL finite.
	Smoothing float64
	// IncludeRate appends a saturating event-rate feature to the LOF
	// vectors so that pure rate collapses remain visible (extension;
	// the gate always works on the pmf prefix).
	IncludeRate bool
	// GateAuto derives GateThreshold from the reference trace instead of
	// the fixed value: Learn replays the gate over the reference windows
	// and takes the GateAutoQuantile quantile of the observed distances,
	// so the threshold sits at the clean trace's noise ceiling whatever
	// the gate distance's scale (kl's clean-trace distances are about half
	// symkl's).
	GateAuto bool
	// GateAutoQuantile is the reference gate-distance quantile used by
	// GateAuto; zero means DefaultGateAutoQuantile.
	GateAutoQuantile float64
	// FastKernels is ignored: every model scores exactly. It is kept only
	// because the wire benchmark (bench/) still sets it, and goes when
	// that benchmark next changes. Learn does not read it and SaveModel
	// does not write it, so a loaded Config has it false.
	FastKernels bool
}

// DefaultGateAutoQuantile is the reference gate-distance quantile GateAuto
// calibrates at unless GateAutoQuantile says otherwise: it keeps the gate
// re-tripping through the interior of a shifted regime, where a ceiling
// quantile like 0.99 only catches regime edges.
const DefaultGateAutoQuantile = 0.90

// NewConfig returns the one shipped configuration: what learn, eval,
// sweep and the benchmark workloads start from. It keeps §III's
// 40 ms windows and K = 20, with the knobs the paper leaves implicit at
// fixed values. Three depart from §III. The simulator's 40 ms windows
// hold ≈ 42 events, so their multinomial noise alone puts the reference
// train-LOF p95 near 2.0: alpha 2.5 (the paper's 1.2) sits just above
// that floor, the 0.1 gate keeps LOF engaged through the interior of a
// stalled regime instead of only at its edges, and the rate feature
// (IncludeRate) keeps pure rate collapses visible to LOF.
func NewConfig(numTypes int) Config {
	return Config{
		NumTypes:       numTypes,
		WindowDuration: 40 * time.Millisecond,
		K:              20,
		Alpha:          2.5,
		GateThreshold:  0.1,
		GateDistance:   distance.Must("symkl"),
		LOFDistance:    distance.Must("symkl"),
		MergeLambda:    0.1,
		Smoothing:      0.5,
		IncludeRate:    true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumTypes <= 1 {
		return fmt.Errorf("core: NumTypes must be > 1, got %d", c.NumTypes)
	}
	if c.WindowDuration <= 0 {
		return fmt.Errorf("core: WindowDuration must be positive, got %v", c.WindowDuration)
	}
	if c.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", c.K)
	}
	// The float checks test for the valid range and negate it, so that NaN,
	// which fails every comparison, is rejected. The upper bounds keep +Inf
	// out: the model file, JSON, cannot encode it.
	if !(c.Alpha >= 1 && c.Alpha <= math.MaxFloat64) {
		return fmt.Errorf("core: Alpha must be >= 1 and finite, got %g", c.Alpha)
	}
	if !(c.GateThreshold >= 0 && c.GateThreshold <= math.MaxFloat64) {
		return fmt.Errorf("core: GateThreshold must be >= 0 and finite, got %g", c.GateThreshold)
	}
	if !(c.MergeLambda > 0 && c.MergeLambda <= 1) {
		return fmt.Errorf("core: MergeLambda %g outside (0,1]", c.MergeLambda)
	}
	if !(c.Smoothing >= 0 && c.Smoothing <= math.MaxFloat64) {
		return fmt.Errorf("core: Smoothing must be >= 0 and finite, got %g", c.Smoothing)
	}
	if c.GateDistance.F == nil || c.LOFDistance.F == nil {
		return errors.New("core: nil distance function")
	}
	if q := c.GateAutoQuantile; q != 0 && !(q > 0 && q < 1) {
		return fmt.Errorf("core: GateAutoQuantile %g outside (0,1)", q)
	}
	return nil
}

// gateAutoQuantile returns the effective auto-calibration quantile.
func (c Config) gateAutoQuantile() float64 {
	if c.GateAutoQuantile > 0 {
		return c.GateAutoQuantile
	}
	return DefaultGateAutoQuantile
}

// NewWindower builds a fresh windower matching the config.
func (c Config) NewWindower() *window.ByTime {
	return window.NewByTime(c.WindowDuration)
}

// Decision is the monitor's verdict on one window, with the window and
// its features. Its GateDist is exact on every tripped window, +Inf on a
// stream's first. On a quiet window it is exact only where the gate
// distance has no upper bound (kl) or the bound could not certify the
// window; a window certified quiet carries the bound instead, a value at
// least the exact distance and at most the threshold (DESIGN.md, "The
// certified gate").
type Decision struct {
	obs.Verdict
	// Window is the judged window. In a decision from Run its Events are
	// lent by the windower: valid until the callback returns, so a
	// callback that keeps them copies them (Window.Clone).
	Window   window.Window
	Features pmf.Vector
}

// Monitor is the per-stream half of the online anomaly detector: it holds
// the mutable stream state (the running past pmf, counters, and the
// reusable featurization/scoring buffers that make steady-state window
// processing allocation-free) over an immutable shared Learned. It is not
// safe for concurrent use; run one Monitor per trace stream — any number
// of Monitors may share one Learned (serve runs one per connection).
type Monitor struct {
	cfg           Config
	feat          pmf.Featurizer
	model         *lof.Model
	scorer        *lof.Scorer
	gateThreshold float64

	ppmf    pmf.Vector // the running "past" pmf
	counts  pmf.Counts // per-window count scratch
	featBuf pmf.Vector // per-window feature scratch

	seeded bool
	noAcct bool
	// scoreTimer, when set, receives the duration of every ProcessWindow
	// performed by Run — the serving layer's per-stage latency hook. Nil
	// (the default) skips the clock reads entirely.
	scoreTimer func(time.Duration)
	// Counters are atomics so admin surfaces (serve's /streams, /stats)
	// can Snapshot a monitor mid-Run without a lock on the hot path; only
	// the owning goroutine writes them.
	windows  atomic.Int64
	trips    atomic.Int64
	anoms    atomic.Int64
	lofCalls atomic.Int64
}

// NewMonitor builds a monitor around a learned model. The model must have
// been produced by Learn with the same Config (dimension mismatches are
// rejected). The Learned is shared, never mutated; all per-stream state
// lives in the returned Monitor.
func NewMonitor(cfg Config, learned *Learned) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if learned == nil || learned.Model == nil {
		return nil, errors.New("core: nil learned model")
	}
	feat := learned.Featurizer
	if feat.FeatureDim() != learned.Model.Dim() {
		return nil, fmt.Errorf("core: featurizer dim %d != model dim %d",
			feat.FeatureDim(), learned.Model.Dim())
	}
	threshold := cfg.GateThreshold
	if cfg.GateAuto {
		if learned.AutoGateThreshold <= 0 {
			return nil, errors.New("core: GateAuto set but the model carries no calibrated threshold (learned without GateAuto?)")
		}
		threshold = learned.AutoGateThreshold
	}
	return &Monitor{
		cfg:           cfg,
		feat:          feat,
		model:         learned.Model,
		scorer:        learned.Model.NewScorer(),
		gateThreshold: threshold,
		ppmf:          make(pmf.Vector, feat.Dim),
		counts:        make(pmf.Counts, feat.Dim),
		featBuf:       make(pmf.Vector, feat.FeatureDim()),
	}, nil
}

// GateThreshold returns the effective gate threshold (the calibrated value
// under GateAuto, the configured one otherwise).
func (m *Monitor) GateThreshold() float64 { return m.gateThreshold }

// SetScoreTimer registers f to be called by Run with the wall duration of
// each ProcessWindow (the window-scoring stage: featurize + gate +
// conditional LOF). f runs on the scoring goroutine, synchronously before
// the window's sink/decision callbacks, so a decision callback reading
// state written by f sees the value for its own window. It must not
// allocate if the caller wants to keep the scoring path allocation-free.
func (m *Monitor) SetScoreTimer(f func(time.Duration)) { m.scoreTimer = f }

// DisableByteAccounting makes Run skip the per-event encoded-size
// accounting, leaving RunStats.FullBytes zero. The serving layer accounts
// received bytes itself at ingest time (where dropped events are still
// visible), so the monitor repeating the arithmetic per event would be
// pure hot-path overhead.
func (m *Monitor) DisableByteAccounting() { m.noAcct = true }

// ProcessWindow runs the §II online step on one window and returns the
// decision. Recording is the caller's job (see Run), keeping the monitor
// storage-agnostic.
//
// Decision.Features aliases the monitor's reusable featurization buffer:
// it is valid until the next ProcessWindow call; callers that retain it
// must clone it.
//
//enduratrace:zeroalloc
func (m *Monitor) ProcessWindow(w window.Window) Decision {
	m.windows.Add(1)
	features := m.feat.FeaturesInto(m.featBuf, m.counts, w)
	npmf := m.feat.PMFOnly(features)

	d := Decision{Window: w, Features: features, Verdict: obs.Verdict{
		WindowIndex: w.Index, Start: w.Start, End: w.End, GateDist: math.Inf(1),
		GateThreshold: m.gateThreshold, LOF: math.NaN(), Alpha: m.cfg.Alpha,
	}}

	if !m.seeded {
		// First window: seed the past pmf and be conservative — run LOF,
		// since there is no past to compare against.
		copy(m.ppmf, npmf)
		m.seeded = true
		d.GateTripped = true
	} else {
		// A bound at or under the threshold certifies the window quiet:
		// the exact distance is no larger. Otherwise the exact distance
		// decides, as it would without the bound.
		if up := m.cfg.GateDistance.Upper; up != nil {
			d.GateDist = up(npmf, m.ppmf)
		}
		if !(d.GateDist <= m.gateThreshold) {
			d.GateDist = m.cfg.GateDistance.F(npmf, m.ppmf)
			d.GateTripped = d.GateDist > m.gateThreshold
		}
	}

	if !d.GateTripped {
		// Similar to the past: merge Npmf into Ppmf so slow drifts stay
		// inside the gate (§II).
		m.ppmf.Merge(npmf, m.cfg.MergeLambda)
		return d
	}

	m.trips.Add(1)
	// Regime switch: the past pmf restarts at the new behaviour so the gate
	// re-arms instead of tripping on every subsequent window of a changed
	// but steady regime.
	copy(m.ppmf, npmf)

	m.lofCalls.Add(1)
	d.LOF = m.scorer.Score(features)
	d.Anomalous = d.LOF >= m.cfg.Alpha
	if d.Anomalous {
		m.anoms.Add(1)
	}
	return d
}

// ScoreWindow computes the LOF of one window in isolation: featurize and
// score, nothing else. Unlike ProcessWindow it does not consult or update
// the running past pmf, does not touch the gate, and bumps no counters —
// it is the pure scoring function used by forensic replay to re-judge a
// recorded window against this monitor's model. Like ProcessWindow it
// reuses the monitor's scratch buffers, so it is not safe for concurrent
// use with any other method on the same Monitor.
func (m *Monitor) ScoreWindow(w window.Window) float64 {
	features := m.feat.FeaturesInto(m.featBuf, m.counts, w)
	return m.scorer.Score(features)
}

// Snapshot is a point-in-time view of a monitor's counters. Unlike
// RunStats it can be taken while the monitor is mid-Run: the counters are
// atomics, so a concurrent observer (the serve admin endpoints) reads a
// consistent-enough live view without locking the hot path.
type Snapshot struct {
	Windows   int64 `json:"windows"`
	GateTrips int64 `json:"gate_trips"`
	LOFCalls  int64 `json:"lof_calls"`
	Anomalies int64 `json:"anomalies"`
}

// Add returns the element-wise sum of two snapshots.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		Windows:   s.Windows + o.Windows,
		GateTrips: s.GateTrips + o.GateTrips,
		LOFCalls:  s.LOFCalls + o.LOFCalls,
		Anomalies: s.Anomalies + o.Anomalies,
	}
}

// Snapshot returns the monitor's live counters. Safe to call from any
// goroutine at any time, including while the monitor is processing.
func (m *Monitor) Snapshot() Snapshot {
	return Snapshot{
		Windows:   m.windows.Load(),
		GateTrips: m.trips.Load(),
		LOFCalls:  m.lofCalls.Load(),
		Anomalies: m.anoms.Load(),
	}
}

// Learned bundles a fitted LOF model with the featurizer that produced its
// points; both are needed to score new windows consistently. A Learned is
// immutable after Learn returns and safe to share across any number of
// concurrent Monitors.
type Learned struct {
	// Model holds one point per reference window.
	Model      *lof.Model
	Featurizer pmf.Featurizer
	// AutoGateThreshold is the gate threshold calibrated from the
	// reference trace's gate-distance quantiles; zero when the model was
	// learned without Config.GateAuto.
	AutoGateThreshold float64
}

// Learn performs the paper's learning step (§II): the reference trace is
// divided into windows, each window becomes a pmf point, and the point set
// is fitted as a LOF model of correct behaviour.
//
// r should be a reference execution with no QoS errors — e.g. the first
// minutes of a validated run, or an unperturbed simulation from
// internal/mediasim.
func Learn(cfg Config, r trace.Reader) (*Learned, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws, err := window.Collect(r, cfg.NewWindower())
	if err != nil {
		return nil, fmt.Errorf("core: windowing reference trace: %w", err)
	}
	if len(ws) <= cfg.K {
		return nil, fmt.Errorf("%w: %d reference windows, K=%d",
			lof.ErrTooFewPoints, len(ws), cfg.K)
	}
	feat := pmf.Featurizer{
		Dim:         cfg.NumTypes,
		Smoothing:   cfg.Smoothing,
		IncludeRate: cfg.IncludeRate,
		RateScale:   pmf.MeanCount(ws),
	}
	points := make([][]float64, len(ws))
	for i, w := range ws {
		points[i] = feat.Features(w)
	}
	model, err := lof.Fit(points, cfg.K, cfg.LOFDistance)
	if err != nil {
		return nil, err
	}
	learned := &Learned{
		Model:      model,
		Featurizer: feat,
	}
	if cfg.GateAuto {
		thr := calibrateGate(cfg, feat, points)
		if thr <= 0 {
			// A zero threshold would be indistinguishable from "never
			// calibrated" downstream (NewMonitor's sentinel); fail here,
			// at learn time, with the actual cause.
			return nil, fmt.Errorf("core: auto gate calibration produced a zero threshold (the reference trace's gate distances are all zero at q=%.3g); use a fixed GateThreshold",
				cfg.gateAutoQuantile())
		}
		learned.AutoGateThreshold = thr
	}
	return learned, nil
}

// calibrateGate replays the monitor's gate over the (clean) reference
// windows — seed the past pmf with the first window, then for each
// subsequent window measure the gate distance and merge — and returns the
// configured quantile of the observed distances. That quantile is the
// clean trace's gate-noise ceiling: on live data, distances above it are
// genuinely unusual for this gate distance's scale, so the threshold
// adapts to kl and symkl alike instead of assuming one fixed magnitude.
func calibrateGate(cfg Config, feat pmf.Featurizer, points [][]float64) float64 {
	ppmf := make(pmf.Vector, feat.Dim)
	copy(ppmf, feat.PMFOnly(points[0]))
	dists := make([]float64, 0, len(points)-1)
	for _, p := range points[1:] {
		npmf := feat.PMFOnly(p)
		dists = append(dists, cfg.GateDistance.F(npmf, ppmf))
		ppmf.Merge(npmf, cfg.MergeLambda)
	}
	return stats.Quantile(dists, cfg.gateAutoQuantile())
}

// RunStats summarises a monitoring run.
type RunStats struct {
	Windows    int
	GateTrips  int
	Anomalies  int
	FullBytes  int64 // exact encoded size of the complete trace
	RecBytes   int64 // bytes actually recorded
	RecWindows int
	Start, End time.Duration // trace time span covered
}

// ReductionFactor returns FullBytes / RecBytes — the paper's headline
// metric — and whether it is defined. When no window was recorded the
// ratio has no value and ok is false (the eval/monitor JSON convention:
// null, never a float sentinel): RecBytes then holds only the recording's
// header, and FullBytes over a header is not a reduction. Nor has it a
// value while no recorded byte is counted yet: a live buffered sink
// counts only what has left its buffer, so windows can be recorded
// before RecBytes moves off 0.
func (s RunStats) ReductionFactor() (rf float64, ok bool) {
	if s.RecWindows == 0 || s.RecBytes <= 0 {
		return 0, false
	}
	return float64(s.FullBytes) / float64(s.RecBytes), true
}

// Run streams a trace through the monitor, forwards anomalous windows to
// sink, and invokes onDecision (if non-nil) for every window — the
// evaluation harness uses the callback to label decisions against ground
// truth. A *recorder.ContextSink passed as sink gets its Observe method
// called on every window so pre/post context works. The windows handed to
// the sink and the callback are lent, valid until the call returns: one
// that keeps a window copies it.
func Run(cfg Config, learned *Learned, r trace.Reader, sink recorder.Sink,
	onDecision func(Decision) error) (RunStats, error) {

	mon, err := NewMonitor(cfg, learned)
	if err != nil {
		return RunStats{}, err
	}
	return mon.Run(r, sink, onDecision)
}

// Run streams a trace through this monitor stream; see the package-level
// Run for the sink/callback semantics. Each Monitor owns its windower and
// byte accounting, so concurrent Monitors over one shared Learned can Run
// independent streams in parallel.
//
// Run reads through window.Stream, the one read → cut → flush loop: the
// reader hands over what it has, a batch at a time, and the windower cuts
// each batch in one pass and lends each window it closes as a sub-slice
// of the batch (or of its carry buffer, for a window that spans batches),
// so a window is judged without being copied: Decision.Window.Events,
// like Decision.Features, is valid until onDecision returns, and the
// sink's Record and ContextSink's Observe get the same lent window. The
// full-trace size is priced over each window's events, which are every
// event of the stream, in order. Every window of a cut is judged with
// ProcessWindow first, each decision keeping its own feature copy, and
// then the decisions are emitted in window order. Judging before emitting
// is deliberate: a sink or callback may wait on an earlier window's
// durability (the serve path's anomaly store keeps up to eight incidents
// in flight per stream and then waits for the oldest), and interleaving
// that wait between two scores of a batch measurably slows a storm.
// Decisions, RunStats, callback order and the abort point do not depend
// on how the events were batched.
func (m *Monitor) Run(r trace.Reader, sink recorder.Sink,
	onDecision func(Decision) error) (RunStats, error) {

	var stats RunStats
	var acct *traceio.SizeAccountant
	if !m.noAcct {
		acct = traceio.NewSizeAccountant()
	}
	ctxSink, _ := sink.(*recorder.ContextSink)

	fdim := m.feat.FeatureDim()
	var (
		decs      []Decision
		scoreNs   []int64   // per-window ProcessWindow duration (scoreTimer only)
		featArena []float64 // backing store for the per-window feature copies
	)

	err := window.Stream(r, m.cfg.NewWindower(), func(wins []window.Window) error {
		if acct != nil {
			for i := range wins {
				evs := wins[i].Events
				for j := range evs {
					if err := acct.Write(evs[j]); err != nil {
						return err
					}
				}
			}
		}
		// Decision.Features aliases the monitor's single featurization
		// buffer, valid until the next ProcessWindow: copy it out so every
		// decision of the batch keeps its own.
		decs, scoreNs = decs[:0], scoreNs[:0]
		if need := len(wins) * fdim; cap(featArena) < need {
			featArena = make([]float64, need)
		}
		for i, w := range wins {
			var t0 int64
			if m.scoreTimer != nil {
				t0 = obs.Now()
			}
			d := m.ProcessWindow(w)
			if m.scoreTimer != nil {
				scoreNs = append(scoreNs, obs.Now()-t0)
			}
			feat := featArena[i*fdim : (i+1)*fdim]
			copy(feat, d.Features)
			d.Features = feat
			decs = append(decs, d)
		}

		for i, d := range decs {
			w := wins[i]
			stats.Windows++
			if stats.Windows == 1 {
				stats.Start = w.Start
			}
			stats.End = w.End
			if d.GateTripped {
				stats.GateTrips++
			}
			if m.scoreTimer != nil {
				m.scoreTimer(time.Duration(scoreNs[i]))
			}
			if ctxSink != nil {
				if err := ctxSink.Observe(w); err != nil {
					return err
				}
			}
			if d.Anomalous {
				stats.Anomalies++
				if sink != nil {
					if err := sink.Record(w); err != nil {
						return err
					}
				}
			}
			if onDecision != nil {
				if err := onDecision(d); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return stats, err
	}

	if acct != nil {
		stats.FullBytes = acct.Bytes()
	}
	if sink != nil {
		stats.RecBytes = sink.BytesWritten()
		stats.RecWindows = sink.WindowsRecorded()
	}
	return stats, nil
}
