package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/eval"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/perturb"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// The frozen load-generator shape. The box the benchmark was sized on has
// two cores, so two connections keep both busy; the count is a constant,
// not nproc, so that a number means the same thing on every machine.
const (
	connections = 2
	// pacedSpeed is the open-loop rate of paced_default, in multiples of
	// real time per connection: under half of what the seed commit
	// sustains on this traffic (27x), and three quarters of what it
	// sustains while a hog has every window tripping (16x), so lag is
	// measured away from saturation.
	pacedSpeed = 12
	// refDuration is the clean reference every model is learned from:
	// 3 000 windows, as `enduratrace eval` does.
	refDuration = 2 * time.Minute
	// replayWindows is the stream-0 prefix the reference computation walks
	// and every serve pass must cover: 70 s of trace, which holds the first
	// 10 s of paper_default's first hog and storm_persist's first two.
	replayWindows = 1750
	hogFactor     = 3
	// lagLimitMs is the latency limit of the open-loop workload: windows
	// recorded later than this after the frame that closed them was due
	// are counted (serve.record_lag_over_500ms) and noted. At half load lag
	// is a few milliseconds; a stall of the shared box shows up as lag of
	// its own length, and only a backlog that keeps growing gets this far.
	// It does not fail the run: a busy neighbour on the box gets there too,
	// and the daemon's decisions are as correct late as on time.
	lagLimitMs = 500
	// lateLimitMs is how late the open-loop generator may run at p95
	// before the run says so in a note: three frame periods. Lag is timed
	// from the due time, so a late frame is not under-reported, but a
	// generator that far behind no longer offers the stated rate. It shares
	// the daemon's two cores, and a scoring goroutine holds one for 2.3 ms
	// at a time, so it cannot be held to much less than one period.
	lateLimitMs = 3 * 40.0 / pacedSpeed
	// glitchEvents is the size of the quiet workload's error storm: two
	// dozen windows' worth of events, all of one type, in one window.
	glitchEvents = 1024
)

// evalSlack and evalWarmup are how `enduratrace eval` matches recorded
// windows against the hog schedule.
var (
	evalSlack  = eval.DefaultOptions().Slack
	evalWarmup = eval.DefaultOptions().Warmup
)

// spec is one named workload: the traffic, the per-workload deployment
// fields of the daemon, and how the load is offered.
type spec struct {
	name string
	why  string
	// lap is the simulated trace length per connection. Closed-loop
	// generators replay the lap body when they reach its end; paced runs
	// size the lap from the run length instead.
	lap time.Duration
	// first and period lay out what disturbs the trace: a factor-3 CPU hog
	// of length hogLen, or with glitch set a one-window storm of pipeline
	// error messages, the one anomaly per period that lets the quiet
	// workload record something, so that its reduction, detection and lag
	// metrics are defined. A closed-loop run stops only where a period
	// ends, so that every run scores the same mix of windows.
	first, period, hogLen time.Duration
	glitch                bool
	// quality is the per-stream trace prefix over which the deterministic
	// quality metrics are taken; a closed-loop run keeps sending until it
	// has covered it even when the clock has run out, so the same seed
	// always scores the same windows.
	quality time.Duration
	// slack extends each ground-truth interval when recorded windows are
	// matched against it (the frame queue delays a hog's effect; a glitch
	// has none).
	slack time.Duration
	paced bool
	// fast sets core.Config.FastKernels; quiet raises the gate above
	// anything the reference trace produced; persist attaches the anomaly
	// store, the file recorder and the alert pipeline. The quiet workload
	// is fast too: each storm costs two LOF calls, and with the exact
	// kernels two calls take as long as 2 000 quiet windows, so LOF would
	// not be idle.
	fast, quiet, persist bool
}

var specs = []spec{
	{
		name: "paper_default",
		why:  "the paper's experiment through the daemon as learn+serve ship it: exact symkl kernels and gate 0.1 send 62% of windows to LOF, so kernel, index and k-selection changes show here first",
		lap:  10 * time.Minute, first: time.Minute, period: 2 * time.Minute, hogLen: 20 * time.Second,
		quality: 210 * time.Second, slack: evalSlack,
	},
	{
		name: "ingest_quiet",
		why:  "clean trace replayed lap after lap, gate raised above the reference maximum, fast kernels, a 40 ms error storm a minute: LOF is idle, so decode, queue, windowing, pmf and the gate kernel do the work",
		lap:  10 * time.Minute, first: 30 * time.Second, period: time.Minute, glitch: true,
		quality: 10 * time.Minute, fast: true, quiet: true,
	},
	{
		name: "storm_persist",
		why:  "production-shaped daemon under an anomaly storm: fast kernels, an fsync-per-trip anomaly store, file recorder and alert pipeline, so the write path beside scoring sets the pace",
		lap:  10 * time.Minute, first: 20 * time.Second, period: 40 * time.Second, hogLen: 20 * time.Second,
		quality: 210 * time.Second, slack: evalSlack, fast: true, persist: true,
	},
	{
		name: "paced_default",
		why:  "paper_default's traffic sent open loop at 12x real time per connection, one frame per window, timed from each frame's due time: here record lag is the daemon's, not the socket buffers'",
		lap:  6 * time.Minute, first: time.Minute, period: 2 * time.Minute, hogLen: 20 * time.Second,
		slack: evalSlack, paced: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled divides every trace duration of the workload by k. The unit
// tests run 1/10 miniatures; the benchmark itself runs k = 1.
func (sp spec) scaled(k int) spec {
	d := time.Duration(k)
	sp.lap /= d
	sp.first /= d
	sp.period /= d
	sp.hogLen /= d
	sp.quality /= d
	return sp
}

// frame is one pre-encoded wire frame of a lap and the client-side mirror
// of what the server's windower will have done once it has read it.
type frame struct {
	off, end int // byte range in lapData.bytes, length prefix included
	// events and closed are cumulative over the lap: events sent and
	// windows closed once this frame has been decoded.
	events, closed int
	// due is the frame's open-loop send time relative to the run start.
	due time.Duration
	// stop marks where a closed-loop run may end: the frame that closes
	// the last window of a period of the disturbance schedule, and the last
	// frame of the lap.
	stop bool
}

// lapData is one lap of one stream as wire bytes. closer maps a window
// (numbered from the first window this lap closes) to the frame whose
// first event at or past the window's end closes it.
type lapData struct {
	bytes  []byte
	frames []frame
	closer []int32
}

func (l *lapData) frameBytes(i int) []byte { return l.bytes[l.frames[i].off:l.frames[i].end] }

// end is the lap's cumulative totals: events and windows closed once
// every frame has been decoded.
func (l *lapData) end() frame { return l.frames[len(l.frames)-1] }

// streamInput is everything one connection sends. The first lap differs
// from the replayed body only in its first event's timestamp delta, so
// the two are encoded through one FrameWriter with a Flush at the seam.
type streamInput struct {
	name   string
	header []byte
	first  lapData
	body   lapData
	// qualityFull is the encoded size of the quality prefix recorded whole
	// (file header included, as the recorder accounts it); truth is the
	// hog schedule inside that prefix.
	qualityFull int64
	truth       []perturb.Interval
}

// inputs is the product of set-up: the model as a daemon would load it and
// the pre-encoded streams.
type inputs struct {
	spec    spec
	cfg     core.Config
	learned *core.Learned
	streams []*streamInput
	// qualityWindows is spec.quality in windows; replayN the reference
	// prefix in windows.
	qualityWindows, replayN int
	win                     time.Duration
	// heapBase is the live heap once the inputs exist and before the model
	// does: what the load generator itself holds.
	heapBase uint64

	learnS, loadS, encodeS, setupS float64
}

// simulate runs mediasim for d under the spec's hog schedule, exactly as
// eval.RunWithLearned builds its perturbed run, and returns the trace
// with the ground truth: the hogs, or the glitches.
func (sp spec) simulate(seed int64, d time.Duration) ([]trace.Event, []perturb.Interval, error) {
	sc := eval.DefaultOptions().Sim
	sc.Duration = d
	sc.Seed = seed
	var truth []perturb.Interval
	if sp.hogLen > 0 {
		load, err := perturb.Periodic(hogFactor, sp.first, sp.period, sp.hogLen, d)
		if err != nil {
			return nil, nil, err
		}
		sc.Load = load
		truth = load.Spans
	}
	evs, err := mediasim.Events(sc)
	if err != nil || !sp.glitch {
		return evs, truth, err
	}
	// Each error storm replaces whatever its window held.
	win := eval.DefaultOptions().Core.WindowDuration
	out := make([]trace.Event, 0, len(evs)+int(d/sp.period+1)*glitchEvents)
	for at := sp.first - sp.first%win; at+win <= d; at += sp.period {
		lo := sort.Search(len(evs), func(i int) bool { return evs[i].TS >= at })
		hi := sort.Search(len(evs), func(i int) bool { return evs[i].TS >= at+win })
		out = append(out, evs[:lo]...)
		for i := 0; i < glitchEvents; i++ {
			out = append(out, trace.Event{TS: at + win*time.Duration(i)/glitchEvents, Type: mediasim.EvErrorMsg, Arg: uint64(i)})
		}
		evs = evs[hi:]
		truth = append(truth, perturb.Interval{Start: at, End: at + win})
	}
	return append(out, evs...), truth, nil
}

// baseConfig is the model configuration `enduratrace learn` ships, plus
// the workload's deployment fields.
func (sp spec) baseConfig() core.Config {
	cfg := eval.DefaultOptions().Core
	cfg.FastKernels = sp.fast
	return cfg
}

// buildModel learns the workload's model from a clean reference and
// round-trips it through a model file, which is the refit a daemon pays
// at start.
func buildModel(in *inputs, seed int64, refDur time.Duration, dir string) error {
	cfg := in.cfg
	if in.spec.quiet {
		// The repo's own gate calibration, asked for (all but) the maximum
		// reference gate distance instead of its 0.90 quantile.
		cfg.GateAuto = true
		cfg.GateAutoQuantile = 0.999999
	}
	ref, _, err := spec{}.simulate(seed, refDur)
	if err != nil {
		return err
	}
	t0 := time.Now()
	learned, err := core.Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		return err
	}
	in.learnS = time.Since(t0).Seconds()
	if in.spec.quiet {
		cfg.GateAuto = false
		cfg.GateThreshold = 4 * learned.AutoGateThreshold
	}

	t0 = time.Now()
	path := filepath.Join(dir, "model.json")
	if err := core.SaveModelFile(path, cfg, learned); err != nil {
		return err
	}
	in.cfg, in.learned, err = core.LoadModelFile(path)
	in.loadS = time.Since(t0).Seconds()
	return err
}

// buildInputs is the whole set-up of one invocation, and what setup_s
// times. seconds sizes the paced lap (0 keeps the spec's); scale is 1
// except in the unit-test miniatures. The streams are built before the
// model so that the heap they occupy can be read on its own.
func buildInputs(sp spec, seed int64, seconds float64, scale int, dir string) (*inputs, error) {
	start := time.Now()
	sp = sp.scaled(scale)
	in := &inputs{spec: sp, cfg: sp.baseConfig()}
	in.win = in.cfg.WindowDuration
	if in.win <= 0 {
		return nil, fmt.Errorf("the shipped configuration no longer windows by time")
	}
	if sp.paced {
		if seconds > 0 {
			// Everything a paced run sends is due before the clock runs
			// out, so the lap is the run length in trace time.
			n := int(seconds*pacedSpeed*float64(time.Second)/float64(in.win)) + 1
			sp.lap = time.Duration(n) * in.win
		}
		sp.quality = sp.lap
		in.spec = sp
	}
	if sp.lap%in.win != 0 || sp.quality%in.win != 0 || sp.quality > sp.lap || sp.period%in.win != 0 {
		return nil, fmt.Errorf("lap %v, period %v and quality prefix %v must be whole %v windows, prefix within lap", sp.lap, sp.period, sp.quality, in.win)
	}
	if !sp.paced && sp.period > 0 && sp.lap%sp.period != 0 {
		return nil, fmt.Errorf("lap %v must be whole periods of %v, or a replayed lap would break the schedule", sp.lap, sp.period)
	}
	in.qualityWindows = int(sp.quality / in.win)
	// The first lap closes all of its windows but the last, so the prefix
	// the reference walks must end before that one.
	in.replayN = min(replayWindows/scale, int(sp.lap/in.win)-1)
	for i := 0; i < connections; i++ {
		evs, truth, err := sp.simulate(seed+1+int64(i), sp.lap)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		st, err := encodeStream(fmt.Sprintf("bench-%d", i), evs, in.win, sp)
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", i, err)
		}
		for _, iv := range truth {
			if iv.Start < sp.quality {
				st.truth = append(st.truth, iv)
			}
		}
		in.streams = append(in.streams, st)
		in.encodeS += time.Since(t0).Seconds()
	}
	in.heapBase = liveHeap()
	if err := buildModel(in, seed, refDuration/time.Duration(scale), dir); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	in.setupS = time.Since(start).Seconds()
	return in, nil
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// encodeStream turns one lap of events into wire bytes for the first lap
// and for the time-shifted lap body, cutting frames the way the workload
// sends them (at traceio.DefaultFrameBytes closed loop, at window ends
// paced) and mirroring the server's windower over both laps.
func encodeStream(name string, evs []trace.Event, win time.Duration, sp spec) (*streamInput, error) {
	if len(evs) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	if evs[0].TS >= win {
		return nil, fmt.Errorf("first event at %v: the trace must start in window 0", evs[0].TS)
	}
	var buf bytes.Buffer
	fw, err := traceio.NewFrameWriter(&buf, name)
	if err != nil {
		return nil, err
	}
	fw.FrameBytes = 1 << 30 // frames are cut here, by Flush, so their offsets are known
	if err := fw.Flush(); err != nil {
		return nil, err
	}
	st := &streamInput{name: name}
	st.header = bytes.Clone(buf.Bytes())

	wdr := window.NewByTime(win)
	closed := 0
	feed := func(ev trace.Event) {
		if _, ok := wdr.Add(ev); ok {
			closed++
		}
		for {
			if _, ok := wdr.Drain(); !ok {
				break
			}
			closed++
		}
	}

	// A workload with no schedule has one period, its lap.
	periodWindows := int(sp.lap / win)
	if sp.period > 0 {
		periodWindows = int(sp.period / win)
	}
	acct := traceio.NewSizeAccountant()
	encodeLap := func(shift time.Duration, first bool) (lapData, error) {
		var lap lapData
		start, base, cutAt := buf.Len(), closed, closed
		payload, prev := 0, time.Duration(0)
		cut := func(events int, lastTS time.Duration) error {
			if err := fw.Flush(); err != nil {
				return err
			}
			f := frame{end: buf.Len() - start, events: events, closed: closed - base}
			// closed counts across laps, so periods line up on every lap.
			f.stop = closed/periodWindows != cutAt/periodWindows
			cutAt = closed
			if n := len(lap.frames); n > 0 {
				f.off = lap.frames[n-1].end
			}
			if sp.paced {
				f.due = (lastTS - lastTS%win + win) / pacedSpeed
			}
			for len(lap.closer) < f.closed {
				lap.closer = append(lap.closer, int32(len(lap.frames)))
			}
			lap.frames = append(lap.frames, f)
			payload = 0
			return nil
		}
		for i, ev := range evs {
			if sp.paced && i > 0 && ev.TS/win != evs[i-1].TS/win {
				if err := cut(i, evs[i-1].TS); err != nil {
					return lap, err
				}
			}
			if first && ev.TS < sp.quality {
				_ = acct.Write(ev) // a SizeAccountant never fails
			}
			payload += traceio.EncodedSize(ev, prev, i == 0)
			prev = ev.TS
			ev.TS += shift
			if err := fw.Write(ev); err != nil {
				return lap, err
			}
			feed(ev)
			if !sp.paced && payload >= traceio.DefaultFrameBytes {
				if err := cut(i+1, evs[i].TS); err != nil {
					return lap, err
				}
			}
		}
		if payload > 0 {
			if err := cut(len(evs), evs[len(evs)-1].TS); err != nil {
				return lap, err
			}
		}
		lap.frames[len(lap.frames)-1].stop = true
		lap.bytes = bytes.Clone(buf.Bytes()[start:])
		return lap, nil
	}

	if st.first, err = encodeLap(0, true); err != nil {
		return nil, err
	}
	st.qualityFull = acct.Bytes()
	lapWindows := int(sp.lap / win)
	if got := st.first.end().closed; got != lapWindows-1 {
		return nil, fmt.Errorf("first lap closes %d windows, want %d: the trace must reach its last window", got, lapWindows-1)
	}
	if sp.paced {
		return st, nil
	}
	if st.body, err = encodeLap(sp.lap, false); err != nil {
		return nil, err
	}
	// The body may be replayed only if it is periodic: it must close exactly
	// one lap of windows (the previous lap's last one and all but its own
	// last), or a replay would drift off the mirror.
	if got := st.body.end().closed; got != lapWindows {
		return nil, fmt.Errorf("lap body closes %d windows, want %d: it cannot be replayed", got, lapWindows)
	}
	return st, nil
}

// position names a frame boundary in the sent stream: laps completed and
// frames of the current lap sent.
type position struct{ lap, frames int }

func (p position) before(q position) bool {
	return p.lap < q.lap || (p.lap == q.lap && p.frames < q.frames)
}

// lapAt returns the lap data that lap index k sends.
func (st *streamInput) lapAt(k int) *lapData {
	if k == 0 {
		return &st.first
	}
	return &st.body
}

// sent returns the events sent and windows closed at a position.
func (st *streamInput) sent(p position) (events, closed int) {
	if p.lap > 0 {
		events = st.first.end().events + (p.lap-1)*st.body.end().events
		closed = st.first.end().closed + (p.lap-1)*st.body.end().closed
	}
	if p.frames > 0 {
		f := st.lapAt(p.lap).frames[p.frames-1]
		events += f.events
		closed += f.closed
	}
	return events, closed
}

// coverWindows returns the first position at which at least n windows are
// closed, so that a run which reaches it has scored windows 0..n-1.
func (st *streamInput) coverWindows(n int) position {
	for p := (position{}); ; p = (position{lap: p.lap + 1}) {
		lap := st.lapAt(p.lap)
		for j := range lap.frames {
			p.frames = j + 1
			if _, closed := st.sent(p); closed >= n {
				return p
			}
		}
		if len(st.body.frames) == 0 {
			return p // a paced lap is all there is
		}
	}
}
