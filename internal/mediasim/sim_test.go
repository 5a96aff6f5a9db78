package mediasim

import (
	"testing"
	"time"

	"enduratrace/internal/perturb"
	"enduratrace/internal/trace"
)

func shortConfig(d time.Duration) Config {
	cfg := DefaultConfig()
	cfg.Duration = d
	return cfg
}

func TestRegistryCoversAllTypes(t *testing.T) {
	reg := Registry()
	if reg.NumTypes() != NumEventTypes {
		t.Fatalf("registry NumTypes %d != NumEventTypes %d", reg.NumTypes(), NumEventTypes)
	}
	for _, typ := range reg.Types() {
		if reg.Name(typ) == "" {
			t.Fatalf("type %d unnamed", typ)
		}
	}
	if len(reg.Types()) != NumEventTypes {
		t.Fatalf("registry names %d types, want %d", len(reg.Types()), NumEventTypes)
	}
}

func TestDeterministicForSameSeed(t *testing.T) {
	a, err := Events(shortConfig(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Events(shortConfig(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TS != b[i].TS || a[i].Type != b[i].Type || a[i].Arg != b[i].Arg ||
			len(a[i].Payload) != len(b[i].Payload) {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	cfg := shortConfig(5 * time.Second)
	cfg.Seed = 99
	c, err := Events(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) {
		same := true
		for i := range c {
			if c[i].TS != a[i].TS || c[i].Type != a[i].Type {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestTimestampsMonotoneAndWithinHorizon(t *testing.T) {
	cfg := shortConfig(5 * time.Second)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ReadAll(sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	for i, ev := range evs {
		if i > 0 && ev.TS < evs[i-1].TS {
			t.Fatalf("timestamp order violated: %v after %v", ev.TS, evs[i-1].TS)
		}
		if ev.TS < 0 || ev.TS >= cfg.Duration {
			t.Fatalf("event at %v outside [0,%v)", ev.TS, cfg.Duration)
		}
		if int(ev.Type) >= NumEventTypes {
			t.Fatalf("event type %d out of range", ev.Type)
		}
	}
	// ~1 kHz aggregate rate: a 5 s trace should hold a few thousand events.
	if len(evs) < 2000 || len(evs) > 20000 {
		t.Fatalf("implausible event count %d for 5s", len(evs))
	}
}

func TestCleanRunHasNoQoSErrors(t *testing.T) {
	evs, err := Events(shortConfig(30 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	renders := 0
	for _, ev := range evs {
		if isErrorEvent(ev.Type) {
			t.Fatalf("clean run emitted error event %v at %v", ev.Type, ev.TS)
		}
		if ev.Type == EvFrameRender {
			renders++
		}
	}
	// 25 fps over 30 s minus startup: essentially every deadline met.
	if renders < 700 {
		t.Fatalf("only %d renders in a clean 30s run", renders)
	}
}

func TestPerturbationCausesQoSErrorsAndRecovery(t *testing.T) {
	cfg := shortConfig(60 * time.Second)
	load, err := perturb.NewIntervals(3, []perturb.Interval{
		{Start: 20 * time.Second, End: 35 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Load = load
	evs, err := Events(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var errsBefore, errsDuring, errsAfter, recoveries int
	for _, ev := range evs {
		switch {
		case isErrorEvent(ev.Type):
			switch {
			case ev.TS < 20*time.Second:
				errsBefore++
			case ev.TS < 36*time.Second: // one second of grace for drain
				errsDuring++
			default:
				errsAfter++
			}
		case ev.Type == EvQoSRecovered:
			recoveries++
		}
	}
	if errsBefore != 0 {
		t.Fatalf("%d QoS errors before the perturbation", errsBefore)
	}
	if errsDuring == 0 {
		t.Fatal("perturbation caused no QoS errors")
	}
	if recoveries == 0 {
		t.Fatal("pipeline never recovered")
	}
	// The pipeline must settle again: the tail of the run stays clean
	// (allow a few stragglers right after the perturbation ends).
	var lateErrs int
	for _, ev := range evs {
		if isErrorEvent(ev.Type) && ev.TS > 45*time.Second {
			lateErrs++
		}
	}
	if lateErrs != 0 {
		t.Fatalf("%d QoS errors long after the perturbation ended", lateErrs)
	}
}

func TestQueueLevelsStayInBounds(t *testing.T) {
	cfg := shortConfig(20 * time.Second)
	evs, err := Events(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Type == EvQueueLevel || ev.Type == EvFrameQueued {
			if ev.Arg > uint64(cfg.QueueCap) {
				t.Fatalf("queue depth %d exceeds cap %d", ev.Arg, cfg.QueueCap)
			}
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Load = nil },
		func(c *Config) { c.FramePeriod = 0 },
		func(c *Config) { c.DecodeMean = 0 },
		func(c *Config) { c.QueueCap = 0 },
		func(c *Config) { c.StartupFrames = c.QueueCap + 1 },
		func(c *Config) { c.KeyframeCost = 0.5 },
	}
	for i, mutate := range bad {
		cfg := shortConfig(time.Second)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// isErrorEvent reports whether t signals a playback error, i.e. whether
// the real GStreamer would have written an error message for it: the
// paper's "GStreamer reports an error" criterion.
func isErrorEvent(t trace.EventType) bool {
	switch t {
	case EvQoSUnderflow, EvErrorMsg, EvAudioUnderflow:
		return true
	}
	return false
}
