package eval

import (
	"math"
	"testing"

	"enduratrace/internal/core"
	"enduratrace/internal/distance"
	"enduratrace/internal/recorder"
)

// TestCertifiedGateMatchesExact runs the default experiment, seed 1,
// twice: through the shipped symkl gate, which certifies quiet windows
// with SymmetricKLUpper, and through a symkl without Upper, which computes
// the exact distance on every window. Every window's trip, anomaly and LOF
// bits must agree, and so must GateDist on trips; a quiet window's GateDist
// must lie between the exact distance and the threshold. The bound must
// certify at least 95 % of the quiet windows, or the gate has lost its
// speed while staying correct.
func TestCertifiedGateMatchesExact(t *testing.T) {
	opts := DefaultOptions()
	learned, err := Learn(opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Core.GateDistance.Upper == nil {
		t.Fatal("the shipped symkl gate has no upper bound")
	}
	run := func(cfg core.Config) []core.Decision {
		sim, _, err := perturbedRun(opts)
		if err != nil {
			t.Fatal(err)
		}
		var ds []core.Decision
		if _, err := core.Run(cfg, learned, sim, recorder.NewNullSink(), func(d core.Decision) error {
			d.Features, d.Window.Events = nil, nil // lent; only the verdict is kept
			ds = append(ds, d)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ds
	}
	exactCfg := opts.Core
	exactCfg.GateDistance = distance.Distance{Name: "symkl", F: distance.SymmetricKL}
	want, got := run(exactCfg), run(opts.Core)
	if len(got) != len(want) {
		t.Fatalf("%d decisions, the exact gate gives %d", len(got), len(want))
	}
	thr := opts.Core.GateThreshold
	var quiet, certified int
	for i, g := range got {
		w := want[i]
		if g.GateTripped != w.GateTripped || g.Anomalous != w.Anomalous ||
			math.Float64bits(g.LOF) != math.Float64bits(w.LOF) {
			t.Fatalf("window %d: trip %v anomalous %v LOF %v, the exact gate gives %v %v %v",
				i, g.GateTripped, g.Anomalous, g.LOF, w.GateTripped, w.Anomalous, w.LOF)
		}
		if g.GateTripped {
			if math.Float64bits(g.GateDist) != math.Float64bits(w.GateDist) {
				t.Fatalf("tripped window %d: GateDist %v, exact %v", i, g.GateDist, w.GateDist)
			}
			continue
		}
		quiet++
		if !(g.GateDist >= w.GateDist && g.GateDist <= thr) {
			t.Fatalf("quiet window %d: GateDist %v outside [exact %v, threshold %v]", i, g.GateDist, w.GateDist, thr)
		}
		if math.Float64bits(g.GateDist) != math.Float64bits(w.GateDist) {
			certified++
		}
	}
	t.Logf("%d windows, %d quiet, %d certified by the bound (%.1f %%)",
		len(got), quiet, certified, 100*float64(certified)/float64(quiet))
	if 100*certified < 95*quiet {
		t.Errorf("the bound certified %d of %d quiet windows, want at least 95 %%", certified, quiet)
	}
}
