package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
)

// miniature is the scale the tests run the workloads at: every trace
// duration a tenth of the benchmark's.
const miniature = 10

func miniatureInputs(t *testing.T, name string, seconds float64) *inputs {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	in, err := buildInputs(sp, 1, seconds, miniature, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The first lap and the replayed body, sent as first+body+body, must
// decode to the lap's events followed by the same events one and two laps
// later: the seam is invisible on the wire.
func TestLapSeamDecodesAsContinuousTrace(t *testing.T) {
	in := miniatureInputs(t, "ingest_quiet", 0)
	sp := in.spec
	evs, _, err := sp.simulate(2, sp.lap) // stream 0 replays run seed+1
	if err != nil {
		t.Fatal(err)
	}
	st := in.streams[0]
	wire := bytes.Join([][]byte{st.header, st.first.bytes, st.body.bytes, st.body.bytes, {0}}, nil)
	fr, err := traceio.NewFrameReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()
	got, err := trace.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), 3*len(evs))
	}
	for i, g := range got {
		want := evs[i%len(evs)]
		want.TS += time.Duration(i/len(evs)) * sp.lap
		if g.TS != want.TS || g.Type != want.Type || g.Arg != want.Arg || !bytes.Equal(g.Payload, want.Payload) {
			t.Fatalf("event %d: got %v, want %v", i, g, want)
		}
	}
	if events, closed := st.sent(position{lap: 3}); events != len(got) || closed != 3*int(sp.lap/in.win)-1 {
		t.Errorf("mirror after three laps: %d events, %d windows closed", events, closed)
	}
}

// fakeClock is a clock that only moves when told to.
type fakeClock struct{ now int64 }

func (c *fakeClock) Now() int64            { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now += int64(d) }
func (c *fakeClock) Yield()                { c.now += 1000 }

// slowWriter takes a fixed time over one chosen write.
type slowWriter struct {
	clk    *fakeClock
	writes int
	slowAt int
	takes  time.Duration
}

func (w *slowWriter) Write(b []byte) (int, error) {
	if w.writes == w.slowAt {
		w.clk.now += int64(w.takes)
	}
	w.writes++
	return len(b), nil
}

// An open-loop frame goes out at its due time; after a stall the frames
// that fell due meanwhile go out at once, keep their own due times, and
// the generator is back on schedule as soon as the schedule allows.
func TestPacedGeneratorStampsLagFromDueTime(t *testing.T) {
	in := miniatureInputs(t, "paced_default", 1)
	st := in.streams[0]
	period := in.win / pacedSpeed
	clk := &fakeClock{now: 5e9}
	// Write 0 is the header; frame 10 stalls for three and a half periods.
	w := &slowWriter{clk: clk, slowAt: 11, takes: 3*period + period/2}
	g := &generator{st: st, clk: clk}
	t0 := clk.now
	g.runPaced(w, t0, t0+int64(time.Second))
	if g.err != nil || g.pos.frames < 20 {
		t.Fatalf("sent %d frames, err %v", g.pos.frames, g.err)
	}
	for i, due := range g.due {
		if want := t0 + int64(st.first.frames[i].due); due != want {
			t.Fatalf("frame %d due at %d, want %d", i, due, want)
		}
		late := time.Duration(g.lateMs[i] * 1e6)
		want := time.Duration(0)
		if i >= 11 && i <= 13 {
			// Due during the stall: sent as soon as it ended.
			want = time.Duration(13-i)*period + period/2
		}
		// The fake clock yields in microseconds and due times round to
		// the nanosecond.
		if late < want-10 || late > want+2*time.Microsecond {
			t.Errorf("frame %d went out %v late, want %v", i, late, want)
		}
	}
	// Window k is closed by frame k+1, the first to carry an event at or
	// past its end; a window only the end of the stream closes is due then.
	if got := g.dueOf(4); got != g.due[5] {
		t.Errorf("window 4 due at %d, want frame 5's %d", got, g.due[5])
	}
	g.finish(w)
	if got := g.dueOf(len(st.first.closer)); got != g.eosDue {
		t.Errorf("last window due at %d, want the end-of-stream marker's %d", got, g.eosDue)
	}
	recAt := g.due[5] + int64(3*time.Millisecond)
	p := &passResult{gens: []*generator{g}, sinks: []*timedSink{{recs: []record{{index: 4, at: recAt}}}}}
	if lags := lagsMs(p); len(lags) != 1 || lags[0] != 3 {
		t.Errorf("lag %v ms, want 3", lags)
	}
}

// A closed-loop window is due when the generator was ready to write the
// frame that closes it, on whichever lap that is.
func TestClosedGeneratorDueAcrossLaps(t *testing.T) {
	in := miniatureInputs(t, "ingest_quiet", 0)
	st := in.streams[0]
	// Every reading of the clock moves it, so every frame has its own due
	// time.
	clk := &tickClock{fakeClock: &fakeClock{}, step: time.Millisecond}
	g := &generator{st: st, clk: clk}
	stop := position{lap: 2, frames: len(st.body.frames)} // the end of the third lap
	g.runClosed(io.Discard, 0, stop)
	if g.pos != stop {
		t.Fatalf("stopped at %+v, want %+v", g.pos, stop)
	}
	lapWindows := int(in.spec.lap / in.win)
	for _, win := range []int{0, lapWindows - 2, lapWindows - 1, lapWindows, 2*lapWindows + 5} {
		want := st.coverWindows(win + 1)
		frames := want.frames - 1
		if want.lap > 0 {
			frames += len(st.first.frames) + (want.lap-1)*len(st.body.frames)
		}
		if got := g.dueOf(win); got != g.due[frames] {
			t.Errorf("window %d due at %d, want frame %d's %d", win, got, frames, g.due[frames])
		}
	}
}

// tickClock advances by a fixed step on every reading.
type tickClock struct {
	*fakeClock
	step time.Duration
}

func (c *tickClock) Now() int64 {
	c.now += int64(c.step)
	return c.now
}

func TestSpanSelfTimeSubtractsChildren(t *testing.T) {
	clk := &fakeClock{}
	tr := &tracer{clk: clk}
	root := tr.begin("window", 7)
	clk.now += 10
	a := tr.begin("pmf", 7)
	clk.now += 30
	tr.end(a)
	b := tr.begin("lof", 7)
	clk.now += 5
	c := tr.begin("rows", 7)
	clk.now += 100
	tr.end(c)
	clk.now += 5
	tr.end(b)
	clk.now += 20
	tr.end(root)
	d := tr.begin("pmf", 8)
	clk.now += 40
	tr.end(d)

	if tr.spans[c].Parent != b || tr.spans[b].Parent != root || tr.spans[d].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	self := selfTimes(tr.spans)
	want := map[string]layerTime{
		"window": {calls: 1, selfNs: 30},
		"pmf":    {calls: 2, selfNs: 70},
		"lof":    {calls: 1, selfNs: 10},
		"rows":   {calls: 1, selfNs: 100},
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("%s: %+v, want %+v", name, self[name], w)
		}
	}
	// A nil tracer records nothing and costs nothing.
	var none *tracer
	none.end(none.begin("x", 0))
}

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("%d samples: p%g, want p%g", c.n, got, c.want)
		}
	}
	asc := make([]float64, 200)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := percentile(asc, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (ten samples beyond it)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([7, 1, 9, 3, 10, 2, 8, 4, 6, 5], n=4)
	q1, q2, q3 := quartiles([]float64{7, 1, 9, 3, 10, 2, 8, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"within the bound", []float64{103, 102, 104, 103, 103}, false, "same"},
		{"past the bound", []float64{111, 112, 110, 111, 113}, false, "worse"},
		{"every run beats every run", []float64{90, 91, 89, 90, 92}, false, "better"},
		{"lower is worse when higher is better", []float64{89, 90, 88, 89, 91}, true, "worse"},
		{"too noisy to tell", []float64{80, 120, 100, 90, 115}, false, "unresolved"},
	} {
		if _, _, _, got := judge(base, c.b, c.higher, 0.05); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// Every workload, at a tenth of its length and with a fraction of a
// second on the clock, must balance its books against the mirror and the
// reference, untraced and traced.
func TestMiniatureWorkloadsBalance(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			in := miniatureInputs(t, sp.name, 0.3)
			dir := t.TempDir()
			p, err := runPass(in, 0.3, dir, true)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := replay(in, &tracer{clk: processClock}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if ref.windows != in.replayN || len(ref.spans) == 0 {
				t.Fatalf("replay walked %d windows, %d spans", ref.windows, len(ref.spans))
			}
			v := checkPass(in, p, ref, 1, false)
			for _, problem := range v.problems {
				t.Error(problem)
			}
			if v.attempted == 0 || v.failed != 0 {
				t.Errorf("%d windows attempted, %d failed", v.attempted, v.failed)
			}
			if _, err := withUnits(endToEndDefs, endToEnd(in, p)); err != nil {
				t.Error(err)
			}
			if _, err := withUnits(perLayerDefs, perLayer(in, p, p, v, ref, 0)); err != nil {
				t.Error(err)
			}
			if sp.persist && (len(ref.appendUs) != ref.trips || ref.store.Appended != int64(ref.trips)) {
				t.Errorf("replay appended %d incidents for %d gate trips", ref.store.Appended, ref.trips)
			}
			if sp.paced {
				// The same pass as a busy box would have timed it: generator
				// and records a second late. That is noted, not failed.
				for _, g := range p.gens {
					for i := range g.due {
						g.due[i] -= int64(time.Second)
						g.lateMs[i] += 1000
					}
					g.eosDue -= int64(time.Second)
				}
				late := checkPass(in, p, ref, 1, false)
				if len(late.problems) != 0 || late.failed != 0 || len(late.notes) == 0 {
					t.Errorf("a late run: problems %q, %d failed, notes %q", late.problems, late.failed, late.notes)
				}
				if over, n := lagsOver(p), len(lagsMs(p)); over != n {
					t.Errorf("%d of %d records count as past the lag limit, want all", over, n)
				}
			}
		})
	}
}

// BENCHMARK.json repeats the metric tables and the workloads' reasons;
// the two must not drift apart.
func TestContractFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q %q, the bench has %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the bench", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: %s [%s], the bench has %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEndDefs)
	check("per-layer", c.PerLayer, perLayerDefs)
}
