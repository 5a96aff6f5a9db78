package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

// flagSurface runs a subcommand with -h, with newFlagSet swapped to keep
// the flag set it declared, and lists its flags as "-name=default" in
// name order.
func flagSurface(t *testing.T, run func([]string) error) []string {
	t.Helper()
	saved := newFlagSet
	defer func() { newFlagSet = saved }()
	var fs *flag.FlagSet
	newFlagSet = func(name string) *flag.FlagSet {
		fs = saved(name)
		fs.SetOutput(io.Discard)
		return fs
	}
	if err := run([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, "-"+f.Name+"="+f.DefValue) })
	return got
}

// TestFlagSurface pins every subcommand's flags, by name and default: the
// perturbation schedule, the monitor configuration and the gate flags are
// declared once and shared, and each subcommand keeps its own defaults
// (sim's factor 1, eval's 3, sweep's schedule from sweep.DefaultGrid).
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"sim": `-duration=10m0s -factor=1 -flush-every=0 -model= -out=
			-perturb-duration=20s -perturb-first=1m0s -perturb-period=2m0s
			-seed=1 -stream= -text=false`,
		"learn": `-alpha=2.5 -gate=symkl -gate-auto-q=0.9 -gate-threshold=0.1
			-in= -json=false -k=20 -lof-distance=symkl -model=model.json
			-rate=true -smoothing=0.5 -window=40ms`,
		"monitor": `-alpha=0 -compress=-1 -in= -json=false -model=model.json
			-post=0 -pre=0 -rec=`,
		"eval": `-alpha=2.5 -factor=3 -gate=symkl -gate-auto-q=0.9
			-gate-threshold=0.1 -k=20 -lof-distance=symkl -out=
			-perturb-duration=20s -perturb-first=1m0s -perturb-period=2m0s
			-rate=true -ref-duration=2m0s -run-duration=10m0s -seed=1
			-slack=5s -smoothing=0.5 -warmup=5s -window=40ms`,
		"sweep": `-alphas= -distances=symkl,kl -factors= -gate-auto-q=0.9
			-gate-threshold=0.1 -ks= -out=BENCH_sweep.json
			-perturb-duration=15s -perturb-first=30s -perturb-period=50s
			-q=false -ref-duration=40s -run-duration=2m0s -seed-base=1
			-seeds=3 -sort=reduction -workers=0`,
		"serve": `-admin=127.0.0.1:9465 -alert-burst=0 -alert-clear-after=0s
			-alert-log=false -alert-min-trips=0 -alert-rate=0
			-alert-trip-on-gate=false -alert-webhook= -alpha=0
			-anomaly-segment-bytes=0 -anomaly-store= -backpressure=block
			-compress=-1 -default-model= -flight-every=0 -json=false
			-listen=127.0.0.1:9464 -log-format=text -model=model.json
			-pprof=false -queue=1024 -rec-dir=`,
		"replay": `-alpha=0 -model= -out= -store=`,
	}
	for _, c := range subcommands {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("subcommand %s has no pinned flag surface", c.name)
			continue
		}
		if got := flagSurface(t, c.run); !slices.Equal(got, strings.Fields(w)) {
			t.Errorf("%s flags:\n got %s\nwant %s", c.name, strings.Join(got, " "), strings.Join(strings.Fields(w), " "))
		}
	}
}
