package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrUnknownModel is wrapped by ModelRegistry.Resolve when a stream names
// a model the registry does not hold; the serving layer turns it into a
// clean stream rejection instead of scoring with the wrong model.
var ErrUnknownModel = errors.New("core: unknown model")

// NamedModel is one registry entry: an immutable Learned plus the Config
// it was learned under, addressable by name. The serving layer pins the
// *NamedModel at stream registration, so a registry reload never changes
// the model under an in-flight Monitor.Run.
type NamedModel struct {
	Name    string
	Cfg     Config
	Learned *Learned
}

// modelSet is one immutable generation of the registry's contents; Reload
// builds a fresh one and swaps the pointer.
type modelSet struct {
	models      map[string]*NamedModel
	defaultName string
}

// ModelRegistry is a named set of immutable models with atomic hot
// reload: readers (stream registration, admin endpoints) always see one
// consistent generation, and Reload swaps in a freshly loaded generation
// only after every file in the directory parsed and validated — a broken
// reload leaves the serving set untouched.
type ModelRegistry struct {
	dir string // "" for static (in-process) registries; Reload then errors
	set atomic.Pointer[modelSet]

	// reloadMu serialises Reloads (SIGHUP racing POST /reload); readers
	// never take it.
	reloadMu sync.Mutex
	gen      atomic.Int64
}

// NewModelRegistry builds a static registry from pre-loaded models —
// the in-process path (tests, single -model serving). Every
// model is validated by constructing a throwaway Monitor, so stream
// registration cannot fail on model errors mid-serve. defaultName may be
// empty when exactly one model is given.
func NewModelRegistry(defaultName string, models ...*NamedModel) (*ModelRegistry, error) {
	set, err := buildModelSet(defaultName, models)
	if err != nil {
		return nil, err
	}
	r := &ModelRegistry{}
	r.set.Store(set)
	return r, nil
}

// LoadModelDir loads every *.json model file in dir (the model's name is
// the file's base name without the extension) and returns a reloadable
// registry. defaultName picks the model served to streams that name none;
// empty is allowed when the directory holds exactly one model.
func LoadModelDir(dir, defaultName string) (*ModelRegistry, error) {
	models, err := loadModelDirOnce(dir)
	if err != nil {
		return nil, err
	}
	set, err := buildModelSet(defaultName, models)
	if err != nil {
		return nil, fmt.Errorf("core: model dir %s: %w", dir, err)
	}
	r := &ModelRegistry{dir: dir}
	r.set.Store(set)
	return r, nil
}

// LoadModels loads the models at path without building a registry: a
// model file is one model named "default", a directory is every *.json
// model in it, named as LoadModelDir names them. replay scores against
// every model it returns; serve loads a directory through LoadModelDir,
// whose registry can reload.
func LoadModels(path string) ([]*NamedModel, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return loadModelDirOnce(path)
	}
	cfg, learned, err := LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	return []*NamedModel{{Name: "default", Cfg: cfg, Learned: learned}}, nil
}

// loadModelDirOnce reads one generation of models from dir.
func loadModelDirOnce(dir string) ([]*NamedModel, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("core: model dir %s: %w", dir, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: model dir %s holds no *.json model files", dir)
	}
	sort.Strings(paths)
	models := make([]*NamedModel, 0, len(paths))
	for _, p := range paths {
		cfg, learned, err := LoadModelFile(p)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		models = append(models, &NamedModel{Name: name, Cfg: cfg, Learned: learned})
	}
	return models, nil
}

// buildModelSet validates the models (unique non-empty names, monitor
// constructibility) and resolves the default.
func buildModelSet(defaultName string, models []*NamedModel) (*modelSet, error) {
	if len(models) == 0 {
		return nil, errors.New("core: model registry needs at least one model")
	}
	byName := make(map[string]*NamedModel, len(models))
	for _, m := range models {
		if m.Name == "" {
			return nil, errors.New("core: model registry entry with empty name")
		}
		if _, dup := byName[m.Name]; dup {
			return nil, fmt.Errorf("core: duplicate model name %q", m.Name)
		}
		if _, err := NewMonitor(m.Cfg, m.Learned); err != nil {
			return nil, fmt.Errorf("core: model %q: %w", m.Name, err)
		}
		byName[m.Name] = m
	}
	if defaultName == "" {
		if len(models) > 1 {
			return nil, fmt.Errorf("core: %d models but no default named (set one)", len(models))
		}
		defaultName = models[0].Name
	}
	if _, ok := byName[defaultName]; !ok {
		return nil, fmt.Errorf("core: default model %q not in registry (have %s)",
			defaultName, strings.Join(sortedNames(byName), ", "))
	}
	return &modelSet{models: byName, defaultName: defaultName}, nil
}

func sortedNames(m map[string]*NamedModel) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Resolve returns the model registered under name, or the default model
// for an empty name (the version 1 frame-header path). Unknown names wrap
// ErrUnknownModel.
func (r *ModelRegistry) Resolve(name string) (*NamedModel, error) {
	set := r.set.Load()
	if name == "" {
		return set.models[set.defaultName], nil
	}
	m, ok := set.models[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownModel, name,
			strings.Join(sortedNames(set.models), ", "))
	}
	return m, nil
}

// Default returns the current default model.
func (r *ModelRegistry) Default() *NamedModel {
	set := r.set.Load()
	return set.models[set.defaultName]
}

// DefaultName returns the current default model's name.
func (r *ModelRegistry) DefaultName() string { return r.set.Load().defaultName }

// Names lists the registered model names, sorted.
func (r *ModelRegistry) Names() []string { return sortedNames(r.set.Load().models) }

// Len returns the number of registered models.
func (r *ModelRegistry) Len() int { return len(r.set.Load().models) }

// Generation returns how many successful Reloads the registry has seen.
func (r *ModelRegistry) Generation() int64 { return r.gen.Load() }

// Reloadable reports whether the registry was loaded from a directory
// and thus supports Reload (static registries always refuse).
func (r *ModelRegistry) Reloadable() bool { return r.dir != "" }

// ReloadReport summarises one successful Reload.
type ReloadReport struct {
	Generation int64    `json:"generation"`
	Models     []string `json:"models"`
	Default    string   `json:"default"`
	Added      []string `json:"added,omitempty"`
	Removed    []string `json:"removed,omitempty"`
}

// Reload re-reads the model directory and atomically swaps the registry
// to the fresh set. In-flight streams keep the *NamedModel they were
// registered with and finish on the old generation; streams registered
// after Reload returns resolve against the new one. Any load or
// validation error (including a vanished default model) aborts the swap
// and leaves the current set serving. Static registries (no directory)
// cannot reload.
func (r *ModelRegistry) Reload() (ReloadReport, error) {
	if r.dir == "" {
		return ReloadReport{}, errors.New("core: model registry was not loaded from a directory; nothing to reload")
	}
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	models, err := loadModelDirOnce(r.dir)
	if err != nil {
		return ReloadReport{}, err
	}
	old := r.set.Load()
	// The default name is sticky across reloads (including one that was
	// implicit from a single-model dir); if the reloaded directory no
	// longer holds it, buildModelSet refuses and the swap is aborted —
	// there is deliberately no fallback to some other surviving model.
	defaultName := old.defaultName
	next, err := buildModelSet(defaultName, models)
	if err != nil {
		return ReloadReport{}, fmt.Errorf("core: reloading model dir %s: %w", r.dir, err)
	}
	r.set.Store(next)
	gen := r.gen.Add(1)

	rep := ReloadReport{Generation: gen, Models: sortedNames(next.models), Default: next.defaultName}
	for name := range next.models {
		if _, ok := old.models[name]; !ok {
			rep.Added = append(rep.Added, name)
		}
	}
	for name := range old.models {
		if _, ok := next.models[name]; !ok {
			rep.Removed = append(rep.Removed, name)
		}
	}
	sort.Strings(rep.Added)
	sort.Strings(rep.Removed)
	return rep, nil
}

// SaveModelFile writes one model to path with SaveModel semantics — the
// write-side counterpart of LoadModelFile, used to populate model
// directories. The model goes to a temporary file beside path, which is
// synced and then renamed over path: a failed save leaves whatever path
// held, and a reload never reads a half-written model. The temporary name
// does not end in .json, so LoadModelDir skips it.
func SaveModelFile(path string, cfg Config, l *Learned) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: model %s: %w", path, err)
	}
	if err := writeModelFile(f, cfg, l); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("core: model %s: %w", path, err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("core: model %s: %w", path, err)
	}
	return nil
}

// writeModelFile writes the model into the new file f and closes it,
// making it readable as os.Create's files are under the usual umask.
func writeModelFile(f *os.File, cfg Config, l *Learned) error {
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := SaveModel(f, cfg, l); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}
