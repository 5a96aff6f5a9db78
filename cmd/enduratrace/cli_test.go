package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

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
// sim a reference and a perturbed run, learn, monitor, each monitor
// reading the .etrc file reader's batches.
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

	// The index is no longer selectable, the reference set is no longer
	// condensed, every model scores exactly over time windows and the
	// catalogue is the KL family: the flags that did otherwise, or listed
	// the catalogue, are gone.
	for _, flag := range [][]string{{"-vptree"}, {"-condense", "200"}, {"-model-seed", "2"}, {"-fast-kernels"},
		{"-count", "5"}, {"-list-distances"}} {
		err := cmdLearn(append([]string{"-in", ref, "-model", model}, flag...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag[0]) {
			t.Fatalf("learn %v: %v, want an unknown-flag error", flag, err)
		}
		if _, err := os.Stat(model); err == nil {
			t.Fatalf("learn %v wrote a model file", flag)
		}
	}
	// A distance the catalogue no longer holds is refused by name.
	for _, flag := range []string{"-gate", "-lof-distance"} {
		err := cmdLearn([]string{"-in", ref, "-model", model, flag, "hellinger"})
		if err == nil || !strings.Contains(err.Error(), `unknown distance "hellinger"`) {
			t.Fatalf("learn %s hellinger: %v, want an unknown-distance error", flag, err)
		}
		if _, err := os.Stat(model); err == nil {
			t.Fatalf("learn %s hellinger wrote a model file", flag)
		}
	}
	if err := cmdLearn([]string{"-in", ref, "-model", model}); err != nil {
		t.Fatal(err)
	}

	// A value the model file cannot encode is refused before anything is
	// learned, and the model already at -model keeps every byte.
	saved, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	for _, flag := range [][]string{{"-alpha", "Inf"}, {"-gate-threshold", "Inf"}, {"-smoothing", "Inf"}} {
		if err := cmdLearn(append([]string{"-in", ref, "-model", model}, flag...)); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Fatalf("learn %v: %v, want a finite-value error", flag, err)
		}
		if now, err := os.ReadFile(model); err != nil || string(now) != string(saved) {
			t.Fatalf("learn %v changed the existing model file (%d bytes, was %d; %v)", flag, len(now), len(saved), err)
		}
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

	// A run that records no window has no reduction factor: JSON null,
	// not FullBytes over the recording's header.
	var none struct {
		RecordedWindows int      `json:"recorded_windows"`
		ReductionFactor *float64 `json:"reduction_factor"`
	}
	if err := json.Unmarshal([]byte(stdoutOf(t, cmdMonitor, "-in", run, "-model", model, "-alpha", "1000", "-json")), &none); err != nil {
		t.Fatal(err)
	}
	if none.RecordedWindows != 0 || none.ReductionFactor != nil {
		t.Fatalf("monitor -alpha 1000: %d recorded windows, reduction null %t; want 0 and null",
			none.RecordedWindows, none.ReductionFactor == nil)
	}

	// Only -alpha 0 keeps the model's threshold; any other value must be a
	// valid one, in monitor and replay alike, and replay applies it to
	// every model of a -model directory.
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
			{"replay", cmdReplay, []string{"-store", store, "-model", model}},
			{"replay dir", cmdReplay, []string{"-store", store, "-model", dir}},
		} {
			err := c.cmd(append(c.args, "-alpha", alpha))
			if err == nil || !strings.Contains(err.Error(), "Alpha must be >= 1") {
				t.Fatalf("%s -alpha %s: %v, want a refusal", c.name, alpha, err)
			}
		}
	}

	// replay reads only a store: a raw trace is monitor's, one run per
	// model. One -model names a file or a directory.
	for _, flag := range [][]string{{"-in", run}, {"-default-model", "a"}, {"-models", dir}} {
		err := cmdReplay(append([]string{"-store", store, "-model", model}, flag...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag[0]) {
			t.Fatalf("replay %v: %v, want an unknown-flag error", flag, err)
		}
	}
	if err := cmdReplay([]string{"-model", model}); err == nil || !strings.Contains(err.Error(), "-store is required") {
		t.Fatalf("replay without -store: %v, want a refusal", err)
	}
	if err := cmdReplay([]string{"-store", store}); err == nil || !strings.Contains(err.Error(), "-model is required") {
		t.Fatalf("replay without -model: %v, want a refusal", err)
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

// TestServeRegistry pins what -model names: a directory is a reloadable
// registry that refuses -alpha, a file is one model that refuses
// -default-model and takes a valid -alpha as its threshold and refuses an
// invalid one, and a missing file is an error — nothing is learned in its
// place. The loopback harness flags, -models and the tuning flags that
// became constants are gone from the command line.
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

	if _, err := serveRegistry(models, "", 3); err == nil || !strings.Contains(err.Error(), "-alpha cannot override a -model directory") {
		t.Fatalf("-model DIR with -alpha: %v, want a refusal", err)
	}
	if reg, err := serveRegistry(models, "", 0); err != nil || !reg.Reloadable() || reg.DefaultName() != "a" {
		t.Fatalf("-model DIR: %v, %v", reg, err)
	}
	if reg, err := serveRegistry(models, "a", 0); err != nil || !reg.Reloadable() || reg.DefaultName() != "a" {
		t.Fatalf("-model DIR -default-model a: %v, %v", reg, err)
	}
	if _, err := serveRegistry(model, "a", 0); err == nil || !strings.Contains(err.Error(), "-default-model needs a -model directory") {
		t.Fatalf("-model FILE with -default-model: %v, want a refusal", err)
	}

	fileCfg, _, err := core.LoadModelFile(model)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, fileCfg.Alpha + 1.5} {
		reg, err := serveRegistry(model, "", alpha)
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
		if nm.Cfg.Alpha != want || reg.Reloadable() || nm.Name != "default" {
			t.Fatalf("-alpha %g: served %q at alpha %g (reloadable %t), want a static %q at %g",
				alpha, nm.Name, nm.Cfg.Alpha, reg.Reloadable(), "default", want)
		}
	}

	for _, alpha := range []float64{-1, math.NaN()} {
		if _, err := serveRegistry(model, "", alpha); err == nil || !strings.Contains(err.Error(), "Alpha must be >= 1") {
			t.Fatalf("-model with -alpha %g: %v, want a refusal", alpha, err)
		}
	}

	missing := filepath.Join(dir, "missing.json")
	if reg, err := serveRegistry(missing, "", 0); !errors.Is(err, os.ErrNotExist) || reg != nil {
		t.Fatalf("missing -model: %v, %v; want an os.ErrNotExist error and no registry", reg, err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a missing -model file was created: %v", err)
	}

	for _, args := range [][]string{{"-selftest"}, {"-clients", "2"}, {"-models", models},
		{"-anomaly-context", "2"}, {"-flight-cap", "512"}, {"-stall-after", "30s"},
		{"-alert-queue", "256"}, {"-alert-timeout", "10s"}} {
		err := cmdServe(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Fatalf("serve %v: %v, want an unknown-flag error", args, err)
		}
	}
}

// TestMain makes the test binary the command itself when runMainEnv is
// set, so a test can observe main's exit status.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "ENDURATRACE_TEST_RUN_MAIN"

// TestExperimentReports runs eval and sweep at a small size. Each must
// print a JSON report; sweep's -out file must hold what it printed. An
// eval that records no window reports its reduction factor as null.
func TestExperimentReports(t *testing.T) {
	shape := []string{"-ref-duration", "2s",
		"-perturb-first", "1s", "-perturb-period", "2s", "-perturb-duration", "1s"}
	sweepOut := filepath.Join(t.TempDir(), "sweep.json")
	reports := make(map[string]string)
	for _, c := range []struct {
		name string
		cmd  func([]string) error
		args []string
	}{
		{"eval", cmdEval, []string{"-seed", "3", "-run-duration", "4s"}},
		{"eval -alpha 1000", cmdEval, []string{"-seed", "3", "-run-duration", "4s", "-alpha", "1000"}},
		{"sweep", cmdSweep, []string{"-seed-base", "3", "-seeds", "1", "-run-duration", "4s",
			"-distances", "symkl", "-q", "-out", sweepOut}},
	} {
		args := append(append([]string{}, shape...), c.args...)
		out := stdoutOf(t, c.cmd, args...)
		var v any
		if err := json.Unmarshal([]byte(out), &v); err != nil {
			t.Fatalf("%s printed no JSON report: %v\n%s", c.name, err, out)
		}
		reports[c.name] = out
	}
	for name, wantNull := range map[string]bool{"eval": false, "eval -alpha 1000": true} {
		var rep struct {
			RecordedWindows int      `json:"recorded_windows"`
			ReductionFactor *float64 `json:"reduction_factor"`
		}
		if err := json.Unmarshal([]byte(reports[name]), &rep); err != nil {
			t.Fatal(err)
		}
		if (rep.ReductionFactor == nil) != wantNull || (rep.RecordedWindows == 0) != wantNull {
			t.Fatalf("%s: %d recorded windows, reduction null %t; want null exactly when none is recorded",
				name, rep.RecordedWindows, rep.ReductionFactor == nil)
		}
	}
	var cells []struct {
		Distance string `json:"distance"`
	}
	if err := json.Unmarshal([]byte(reports["sweep"]), &cells); err != nil || len(cells) != 1 || cells[0].Distance != "symkl" {
		t.Fatalf("sweep report %v (%v), want one symkl cell", cells, err)
	}
	if written, err := os.ReadFile(sweepOut); err != nil || string(written) != reports["sweep"] {
		t.Fatalf("sweep -out holds %q (%v), want what it printed", written, err)
	}
}

// TestRemovedSubcommands: the developer tools are tests now, not
// subcommands, and soak was eval; main refuses their names with exit
// status 2.
func TestRemovedSubcommands(t *testing.T) {
	for _, name := range []string{"lint", "metricslint", "soak"} {
		cmd := exec.Command(os.Args[0], name)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), fmt.Sprintf("unknown subcommand %q", name)) {
			t.Fatalf("enduratrace %s: %v\n%s\nwant exit status 2 and an unknown-subcommand error", name, err, out)
		}
	}
}

// TestCLIDocListsSubcommands: the subcommand table of docs/CLI.md names
// exactly the subcommands main dispatches on, in the same order, so a
// deleted command cannot linger in the docs nor a new one go missing.
func TestCLIDocListsSubcommands(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "CLI.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| \\[`([a-z]+)`\\]\\(#enduratrace-[a-z]+\\) +\\|")
	var documented, dispatched []string
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		documented = append(documented, m[1])
	}
	for _, c := range subcommands {
		dispatched = append(dispatched, c.name)
	}
	if !slices.Equal(documented, dispatched) {
		t.Fatalf("docs/CLI.md lists subcommands %v, main dispatches %v", documented, dispatched)
	}
}

// TestNonFiniteFactorRefused: a perturbation factor of NaN or Inf is
// refused before anything runs. Accepted, it stretched every simulated
// service time without bound: sim wrote without end and eval ran out of
// memory windowing the stalled trace.
func TestNonFiniteFactorRefused(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"sim NaN", []string{"sim", "-factor", "NaN", "-duration", "90s"}},
		{"sim Inf", []string{"sim", "-factor", "Inf", "-duration", "90s"}},
		{"eval Inf", []string{"eval", "-factor", "Inf", "-run-duration", "90s"}},
	} {
		out := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-"))
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append(c.args, "-out", out)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		msg, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(msg), "must be finite") {
			t.Fatalf("enduratrace %s: %v\n%s\nwant exit status 1 and a refusal", c.name, err, msg)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("enduratrace %s left %s behind: %v", c.name, out, err)
		}
	}
}

// TestNegativeSizesRefused: a negative window length, and a negative
// serve queue or anomaly segment size, is refused with exit status 1
// before anything is written or listened on. serve used to run each of the
// others at its default while its start-up line printed the negative
// value.
func TestNegativeSizesRefused(t *testing.T) {
	dir := t.TempDir()
	ref, model := filepath.Join(dir, "ref.etrc"), filepath.Join(dir, "model.json")
	if err := cmdSim([]string{"-out", ref, "-duration", "10s", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLearn([]string{"-in", ref, "-model", model}); err != nil {
		t.Fatal(err)
	}
	serve := []string{"serve", "-model", model, "-listen", "127.0.0.1:0", "-admin", ""}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"learn", "-in", ref, "-model", filepath.Join(dir, "window.json"), "-window", "-1s"}, "WindowDuration must be positive"},
		{append(serve, "-queue", "-5"), "-queue must not be negative"},
		{append(serve, "-anomaly-store", filepath.Join(dir, "store"), "-anomaly-segment-bytes", "-5"), "-anomaly-segment-bytes must not be negative"},
	} {
		expectRefused(t, c.args, c.want)
	}
	for _, name := range []string{"window.json", "store"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("a refused command left %s behind: %v", name, err)
		}
	}
}

// TestBadAlertFlagsRefused: an alert rate or burst that is NaN, infinite
// or negative, and a negative alert min-trips or clear-after, is refused
// with exit status 1 before serve listens. A NaN rate used to admit no
// notification at all, a negative rate only its burst, and the negative
// sizes ran at their defaults.
func TestBadAlertFlagsRefused(t *testing.T) {
	dir := t.TempDir()
	ref, model := filepath.Join(dir, "ref.etrc"), filepath.Join(dir, "model.json")
	if err := cmdSim([]string{"-out", ref, "-duration", "10s", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLearn([]string{"-in", ref, "-model", model}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag, value, want string
	}{
		{"alert-rate", "NaN", "-alert-rate must be finite and not negative, got NaN"},
		{"alert-rate", "Inf", "-alert-rate must be finite and not negative, got +Inf"},
		{"alert-rate", "-1", "-alert-rate must be finite and not negative, got -1"},
		{"alert-burst", "NaN", "-alert-burst must be finite and not negative, got NaN"},
		{"alert-burst", "-Inf", "-alert-burst must be finite and not negative, got -Inf"},
		{"alert-burst", "-5", "-alert-burst must be finite and not negative, got -5"},
		{"alert-min-trips", "-1", "-alert-min-trips must not be negative, got -1"},
		{"alert-clear-after", "-1s", "-alert-clear-after must not be negative, got -1s"},
	} {
		expectRefused(t, []string{"serve", "-model", model, "-listen", "127.0.0.1:0", "-admin", "",
			"-alert-log", "-" + c.flag, c.value}, c.want)
	}
}

// expectRefused runs the command with args and requires exit status 1,
// want in its output, and no listener opened first.
func expectRefused(t *testing.T, args []string, want string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	msg, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(msg), want) {
		t.Fatalf("enduratrace %v: %v\n%s\nwant exit status 1 and %q", args, err, msg, want)
	}
	if strings.Contains(string(msg), "trace ingest on") {
		t.Fatalf("enduratrace %v listened before refusing:\n%s", args, msg)
	}
}
