package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enduratrace/internal/core"
)

// stdoutOf runs cmd with os.Stdout redirected to a file and returns what
// it printed there (the subcommands' -json reports).
func stdoutOf(t *testing.T, cmd func([]string) error, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = cmd(args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSimLearnMonitor drives the offline pipeline the way a user does:
// sim a reference and a perturbed run, learn, monitor. The .etrc reader is
// a plain trace.Reader, so every monitor here exercises Run's one-event
// batches.
func TestSimLearnMonitor(t *testing.T) {
	dir := t.TempDir()
	ref, run := filepath.Join(dir, "ref.etrc"), filepath.Join(dir, "run.etrc")
	model, oldModel := filepath.Join(dir, "model.json"), filepath.Join(dir, "old.json")

	if err := cmdSim([]string{"-out", ref, "-duration", "20s", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSim([]string{"-out", run, "-duration", "30s", "-seed", "2", "-factor", "4",
		"-perturb-first", "5s", "-perturb-period", "10s", "-perturb-duration", "4s"}); err != nil {
		t.Fatal(err)
	}

	// The index is no longer selectable and the reference set is no longer
	// condensed: the flags that did either are gone.
	for _, flag := range [][]string{{"-vptree"}, {"-condense", "200"}, {"-model-seed", "2"}} {
		err := cmdLearn(append([]string{"-in", ref, "-model", model}, flag...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag[0]) {
			t.Fatalf("learn %v: %v, want an unknown-flag error", flag, err)
		}
		if _, err := os.Stat(model); err == nil {
			t.Fatalf("learn %v wrote a model file", flag)
		}
	}
	if err := cmdLearn([]string{"-in", ref, "-model", model}); err != nil {
		t.Fatal(err)
	}

	// A model file from before the flags went still carries their keys;
	// the report over it must be the report over the fresh file.
	raw, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for key, v := range map[string]any{"use_vptree": true, "seed": 2, "condense_target": 200} {
		if _, ok := doc[key]; ok {
			t.Fatalf("learn still writes %s", key)
		}
		doc[key] = v
	}
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldModel, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := stdoutOf(t, cmdMonitor, "-in", run, "-model", model, "-json")
	if old := stdoutOf(t, cmdMonitor, "-in", run, "-model", oldModel, "-json"); old != fresh {
		t.Fatalf("monitor over the old-key model file:\n%s\nover a fresh one:\n%s", old, fresh)
	}

	var report struct {
		Windows   int `json:"windows"`
		GateTrips int `json:"gate_trips"`
		Anomalies int `json:"anomalies"`
	}
	if err := json.Unmarshal([]byte(fresh), &report); err != nil {
		t.Fatal(err)
	}
	if report.Windows != 750 || report.Anomalies == 0 || report.GateTrips <= report.Anomalies {
		t.Fatalf("monitor report %+v: want 750 windows, some anomalies, more trips than anomalies", report)
	}

	// One monitor per trace: fan-out over a shared model is serve's.
	err = cmdMonitor([]string{"-in", run, "-model", model, "-streams", "2"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -streams") {
		t.Fatalf("monitor -streams 2: %v, want an unknown-flag error", err)
	}
	// A negative context window is refused, not a panic in the recorder.
	err = cmdMonitor([]string{"-in", run, "-model", model, "-pre", "-1", "-post", "2"})
	if err == nil || !strings.Contains(err.Error(), "-pre and -post must be >= 0") {
		t.Fatalf("monitor -pre -1: %v, want a refusal", err)
	}

	// Only -alpha 0 keeps the model's threshold; any other value must be a
	// valid one, on the trace and the store path alike.
	store := filepath.Join(dir, "store")
	if err := os.Mkdir(store, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []string{"-1", "NaN", "0.5"} {
		for _, c := range []struct {
			name string
			cmd  func([]string) error
			args []string
		}{
			{"monitor", cmdMonitor, []string{"-in", run, "-model", model}},
			{"replay -in", cmdReplay, []string{"-in", run, "-model", model}},
			{"replay -store", cmdReplay, []string{"-store", store, "-model", model}},
		} {
			err := c.cmd(append(c.args, "-alpha", alpha))
			if err == nil || !strings.Contains(err.Error(), "Alpha must be >= 1") {
				t.Fatalf("%s -alpha %s: %v, want a refusal", c.name, alpha, err)
			}
		}
	}

	// A compression level flate refuses leaves no recording file behind.
	rec := filepath.Join(dir, "r.etrc")
	err = cmdMonitor([]string{"-in", run, "-model", model, "-rec", rec, "-compress", "42"})
	if err == nil || !strings.Contains(err.Error(), "compression level 42") {
		t.Fatalf("monitor -compress 42: %v, want a refusal", err)
	}
	if _, err := os.Stat(rec); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("monitor -compress 42 left %s behind: %v", rec, err)
	}
}

// TestServeRegistry pins serve's model precedence: -models refuses
// -alpha, a -model file loads with a valid -alpha overriding its threshold
// and refuses an invalid one, and a missing -model file is an error —
// nothing is learned in its place. The loopback harness flags are gone
// from the command line.
func TestServeRegistry(t *testing.T) {
	dir := t.TempDir()
	ref, models := filepath.Join(dir, "ref.etrc"), filepath.Join(dir, "models")
	model := filepath.Join(models, "a.json")
	if err := cmdSim([]string{"-out", ref, "-duration", "10s", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(models, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cmdLearn([]string{"-in", ref, "-model", model}); err != nil {
		t.Fatal(err)
	}

	if _, err := serveRegistry(models, "", model, 3); err == nil || !strings.Contains(err.Error(), "-alpha cannot override a -models registry") {
		t.Fatalf("-models with -alpha: %v, want a refusal", err)
	}
	if reg, err := serveRegistry(models, "", "", 0); err != nil || !reg.Reloadable() || reg.DefaultName() != "a" {
		t.Fatalf("-models registry: %v, %v", reg, err)
	}

	fileCfg, _, err := core.LoadModelFile(model)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, fileCfg.Alpha + 1.5} {
		reg, err := serveRegistry("", "", model, alpha)
		if err != nil {
			t.Fatalf("-model with -alpha %g: %v", alpha, err)
		}
		nm, err := reg.Resolve("")
		if err != nil {
			t.Fatal(err)
		}
		want := fileCfg.Alpha
		if alpha > 0 {
			want = alpha
		}
		if nm.Cfg.Alpha != want {
			t.Fatalf("-alpha %g: served alpha %g, want %g", alpha, nm.Cfg.Alpha, want)
		}
	}

	for _, alpha := range []float64{-1, math.NaN()} {
		if _, err := serveRegistry("", "", model, alpha); err == nil || !strings.Contains(err.Error(), "Alpha must be >= 1") {
			t.Fatalf("-model with -alpha %g: %v, want a refusal", alpha, err)
		}
	}

	missing := filepath.Join(dir, "missing.json")
	if reg, err := serveRegistry("", "", missing, 0); !errors.Is(err, os.ErrNotExist) || reg != nil {
		t.Fatalf("missing -model: %v, %v; want an os.ErrNotExist error and no registry", reg, err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a missing -model file was created: %v", err)
	}

	for _, args := range [][]string{{"-selftest"}, {"-clients", "2"}} {
		err := cmdServe(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Fatalf("serve %v: %v, want an unknown-flag error", args, err)
		}
	}
}
