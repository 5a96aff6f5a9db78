package core_test

import (
	"fmt"
	"math"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/window"
)

// ExampleLearn learns a model of correct behaviour from a clean reference
// trace — here a simulated pipeline run, in production the first minutes
// of a validated execution.
func ExampleLearn() {
	cfg := core.NewConfig(mediasim.NumEventTypes)

	sc := mediasim.DefaultConfig()
	sc.Duration = 30 * time.Second
	sc.Seed = 7
	sim, err := mediasim.New(sc)
	if err != nil {
		panic(err)
	}
	learned, err := core.Learn(cfg, sim)
	if err != nil {
		panic(err)
	}
	// 30 s of 40 ms windows: 750 reference points, one per window.
	fmt.Println("model points:", learned.Model.Len())
	fmt.Println("feature dim:", learned.Model.Dim())
	// Output:
	// model points: 750
	// feature dim: 26
}

// ExampleMonitor_ProcessWindow drives the §II online step window by
// window. Any number of Monitors may share one immutable Learned — one
// per live stream (see internal/serve).
func ExampleMonitor_ProcessWindow() {
	cfg := core.NewConfig(mediasim.NumEventTypes)

	ref := mediasim.DefaultConfig()
	ref.Duration = 30 * time.Second
	ref.Seed = 7
	sim, err := mediasim.New(ref)
	if err != nil {
		panic(err)
	}
	learned, err := core.Learn(cfg, sim)
	if err != nil {
		panic(err)
	}
	mon, err := core.NewMonitor(cfg, learned)
	if err != nil {
		panic(err)
	}

	// Monitor a fresh run of the same workload (a different seed: an
	// independent draw of correct behaviour).
	live := mediasim.DefaultConfig()
	live.Duration = 10 * time.Second
	live.Seed = 8
	sim2, err := mediasim.New(live)
	if err != nil {
		panic(err)
	}
	first := true
	err = window.Stream(sim2, cfg.NewWindower(), func(wins []window.Window) error {
		for _, w := range wins {
			d := mon.ProcessWindow(w)
			if first {
				// The first window always trips the gate (there is no past
				// pmf yet) and therefore always gets a LOF score.
				fmt.Println("first window gate tripped:", d.GateTripped)
				fmt.Println("first window scored:", !math.IsNaN(d.LOF))
				first = false
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	snap := mon.Snapshot()
	fmt.Println("windows:", snap.Windows)
	fmt.Println("every trip needed one LOF call:", snap.GateTrips <= snap.Windows)
	// Output:
	// first window gate tripped: true
	// first window scored: true
	// windows: 250
	// every trip needed one LOF call: true
}
