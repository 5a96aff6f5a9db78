package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/mediasim"
)

// learnTwo learns two distinguishable models (different reference seeds
// and K) for multi-model tests.
func learnTwo(t *testing.T) (a, b *NamedModel) {
	t.Helper()
	mk := func(name string, seed int64, k int) *NamedModel {
		cfg := NewConfig(mediasim.NumEventTypes)
		cfg.K = k
		sc := mediasim.DefaultConfig()
		sc.Duration = 15 * time.Second
		sc.Seed = seed
		sim, err := mediasim.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		learned, err := Learn(cfg, sim)
		if err != nil {
			t.Fatal(err)
		}
		return &NamedModel{Name: name, Cfg: cfg, Learned: learned}
	}
	return mk("a", 21, 20), mk("b", 22, 10)
}

func TestModelRegistryResolve(t *testing.T) {
	a, b := learnTwo(t)
	reg, err := NewModelRegistry("a", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("names %v, want [a b]", got)
	}
	if m, err := reg.Resolve(""); err != nil || m.Name != "a" {
		t.Fatalf("empty name resolved to (%v, %v), want the default a", m, err)
	}
	if m, err := reg.Resolve("b"); err != nil || m.Name != "b" {
		t.Fatalf("b resolved to (%v, %v)", m, err)
	}
	_, err = reg.Resolve("nope")
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model error %v, want ErrUnknownModel", err)
	}
	if !strings.Contains(err.Error(), "nope") || !strings.Contains(err.Error(), "a, b") {
		t.Fatalf("unknown-model error %q should name the miss and the available models", err)
	}
	if _, err := reg.Reload(); err == nil {
		t.Fatal("static registry accepted a Reload")
	}
}

func TestModelRegistryValidation(t *testing.T) {
	a, b := learnTwo(t)
	if _, err := NewModelRegistry("a"); err == nil {
		t.Fatal("empty registry accepted")
	}
	if _, err := NewModelRegistry("", a, b); err == nil {
		t.Fatal("two models with no default accepted")
	}
	if _, err := NewModelRegistry("c", a, b); err == nil {
		t.Fatal("absent default model accepted")
	}
	dup := &NamedModel{Name: "a", Cfg: b.Cfg, Learned: b.Learned}
	if _, err := NewModelRegistry("a", a, dup); err == nil {
		t.Fatal("duplicate model name accepted")
	}
	bad := &NamedModel{Name: "bad", Cfg: a.Cfg, Learned: a.Learned}
	bad.Cfg.K = 0 // invalid config: monitor construction must fail at registry build
	if _, err := NewModelRegistry("a", a, bad); err == nil {
		t.Fatal("unconstructible model accepted")
	}
}

// writeModelDir saves the models into dir as <name>.json files.
func writeModelDir(t *testing.T, dir string, models ...*NamedModel) {
	t.Helper()
	for _, m := range models {
		if err := SaveModelFile(filepath.Join(dir, m.Name+".json"), m.Cfg, m.Learned); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveModelFileKeepsOldOnFailure: a save that fails to encode leaves
// the file it would have replaced byte for byte, and no temporary file.
func TestSaveModelFileKeepsOldOnFailure(t *testing.T) {
	a, _ := learnTwo(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := SaveModelFile(path, a.Cfg, a.Learned); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := a.Cfg
	bad.Alpha = math.Inf(1) // Validate refuses it; SaveModel's JSON cannot encode it
	if err := SaveModelFile(path, bad, a.Learned); err == nil {
		t.Fatal("saving a +Inf alpha succeeded")
	}
	if now, err := os.ReadFile(path); err != nil || string(now) != string(old) {
		t.Fatalf("failed save changed the old file (%d bytes, was %d; %v)", len(now), len(old), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after the failed save, want only a.json", names)
	}
	if err := SaveModelFile(path, a.Cfg, a.Learned); err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(path); err != nil || string(now) != string(old) {
		t.Fatalf("re-saving the same model changed its bytes (%v)", err)
	}
}

func TestLoadModelDirAndReload(t *testing.T) {
	a, b := learnTwo(t)
	dir := t.TempDir()
	writeModelDir(t, dir, a, b)

	reg, err := LoadModelDir(dir, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("names %v, want [a b]", got)
	}
	if reg.DefaultName() != "a" || reg.Generation() != 0 {
		t.Fatalf("default %q gen %d, want a/0", reg.DefaultName(), reg.Generation())
	}
	mb, err := reg.Resolve("b")
	if err != nil {
		t.Fatal(err)
	}
	if mb.Cfg.K != 10 {
		t.Fatalf("model b loaded with K=%d, want 10", mb.Cfg.K)
	}

	// A stream resolving b pins this pointer.
	pinnedLearned := mb.Learned

	// Reload after dropping model b: the swap must succeed, a stream that
	// resolved b keeps its pinned *NamedModel unchanged, and b no longer
	// resolves.
	if err := os.Remove(filepath.Join(dir, "b.json")); err != nil {
		t.Fatal(err)
	}
	rep, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 1 || len(rep.Removed) != 1 || rep.Removed[0] != "b" || len(rep.Added) != 0 {
		t.Fatalf("reload report %+v, want generation 1 removing b", rep)
	}
	if mb.Name != "b" || mb.Cfg.K != 10 || mb.Learned != pinnedLearned {
		t.Fatal("reload changed the model a stream had resolved")
	}
	if _, err := reg.Resolve("b"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("post-reload resolve of dropped model: %v, want ErrUnknownModel", err)
	}

	// Reload with a new model file: added.
	writeModelDir(t, dir, b)
	rep, err = reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 2 || len(rep.Added) != 1 || rep.Added[0] != "b" {
		t.Fatalf("reload report %+v, want generation 2 adding b", rep)
	}

	// A broken reload (corrupt file) must leave the serving set intact.
	if err := os.WriteFile(filepath.Join(dir, "b.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Reload(); err == nil {
		t.Fatal("reload over a corrupt model file succeeded")
	}
	if got := reg.Names(); len(got) != 2 {
		t.Fatalf("failed reload changed the serving set to %v", got)
	}
	if reg.Generation() != 2 {
		t.Fatalf("failed reload bumped the generation to %d", reg.Generation())
	}
	if _, err := reg.Resolve("b"); err != nil {
		t.Fatalf("model b gone after failed reload: %v", err)
	}

	// Reload that drops the default model must also refuse the swap.
	if err := os.Remove(filepath.Join(dir, "b.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "a.json")); err != nil {
		t.Fatal(err)
	}
	writeModelDir(t, dir, b)
	if _, err := reg.Reload(); err == nil {
		t.Fatal("reload that dropped the default model succeeded")
	}
	if reg.DefaultName() != "a" {
		t.Fatalf("default changed to %q after refused reload", reg.DefaultName())
	}
}

func TestLoadModelDirDefaultRules(t *testing.T) {
	a, b := learnTwo(t)
	one := t.TempDir()
	writeModelDir(t, one, a)
	reg, err := LoadModelDir(one, "")
	if err != nil {
		t.Fatal(err)
	}
	if reg.DefaultName() != "a" {
		t.Fatalf("single-model dir default %q, want a", reg.DefaultName())
	}

	two := t.TempDir()
	writeModelDir(t, two, a, b)
	if _, err := LoadModelDir(two, ""); err == nil {
		t.Fatal("multi-model dir with no default accepted")
	}
	if _, err := LoadModelDir(two, "c"); err == nil {
		t.Fatal("absent default accepted")
	}
	if _, err := LoadModelDir(t.TempDir(), ""); err == nil {
		t.Fatal("empty dir accepted")
	}
}
