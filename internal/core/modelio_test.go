package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/mediasim"
	"enduratrace/internal/perturb"
	"enduratrace/internal/trace"
	"enduratrace/internal/window"
)

// savedModelJSON learns a small valid model and returns its JSON document
// as a generic map, ready for per-test mutation.
func savedModelJSON(t testing.TB) map[string]any {
	t.Helper()
	cfg := testConfig()
	ref := synth(0, 2*time.Second, refWeights, 1)
	learned, err := Learn(cfg, trace.NewSliceReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, cfg, learned); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestLoadModelErrorPaths drives every LoadModel failure mode through a
// mutated-but-otherwise-valid model document and checks the error text
// carries enough to act on (the unsupported version names the supported
// one, distance errors name the distance, and so on).
func TestLoadModelErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(doc map[string]any) // nil: raw input used instead
		raw     string
		wantSub []string
	}{
		{
			name:    "corrupt-json",
			raw:     `{"version": 1, "points": [[0.1,`,
			wantSub: []string{"decoding model file"},
		},
		{
			name:    "not-json-at-all",
			raw:     "ETRC\x01binary trace, not a model",
			wantSub: []string{"decoding model file"},
		},
		{
			name:    "future-version",
			mutate:  func(doc map[string]any) { doc["version"] = 99 },
			wantSub: []string{"unsupported model file version 99", "supports version 1"},
		},
		{
			name:    "zero-version",
			mutate:  func(doc map[string]any) { doc["version"] = 0 },
			wantSub: []string{"unsupported model file version 0", "supports version 1"},
		},
		{
			name:    "unknown-gate-distance",
			mutate:  func(doc map[string]any) { doc["gate_distance"] = "warp" },
			wantSub: []string{"gate distance", "warp"},
		},
		{
			name:    "unknown-lof-distance",
			mutate:  func(doc map[string]any) { doc["lof_distance"] = "warp" },
			wantSub: []string{"LOF distance", "warp"},
		},
		{
			name:    "empty-points",
			mutate:  func(doc map[string]any) { doc["points"] = [][]float64{} },
			wantSub: []string{"no reference points"},
		},
		{
			name:    "missing-points",
			mutate:  func(doc map[string]any) { delete(doc, "points") },
			wantSub: []string{"no reference points"},
		},
		{
			name: "too-few-points-for-k",
			mutate: func(doc map[string]any) {
				doc["points"] = [][]float64{{0.25, 0.25, 0.25, 0.25}, {0.4, 0.3, 0.2, 0.1}}
			},
			wantSub: []string{"refitting model"},
		},
		{
			name:    "invalid-config",
			mutate:  func(doc map[string]any) { doc["k"] = -1 },
			wantSub: []string{"model file config"},
		},
		{
			name:    "zero-width-points",
			mutate:  func(doc map[string]any) { doc["points"] = zeroWidthPoints(doc) },
			wantSub: []string{"refitting model", "dimension 0"},
		},
		{
			name:    "overflowing-points",
			mutate:  func(doc map[string]any) { doc["points"] = overflowingPoints(doc) },
			wantSub: []string{"refitting model", "reference set too small for K", "finite distance"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var input []byte
			if tc.mutate != nil {
				doc := savedModelJSON(t)
				tc.mutate(doc)
				var err error
				if input, err = json.Marshal(doc); err != nil {
					t.Fatal(err)
				}
			} else {
				input = []byte(tc.raw)
			}
			_, _, err := LoadModel(bytes.NewReader(input))
			if err == nil {
				t.Fatal("LoadModel accepted a broken model file")
			}
			for _, sub := range tc.wantSub {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q does not mention %q", err, sub)
				}
			}
		})
	}
}

// zeroWidthPoints is K+1 empty rows for doc: enough points for its K, each
// of dimension 0.
func zeroWidthPoints(doc map[string]any) [][]float64 {
	rows := make([][]float64, int(doc["k"].(float64))+1)
	for i := range rows {
		rows[i] = []float64{}
	}
	return rows
}

// overflowingPoints is K+1 one-hot rows of 1e308 as wide as doc's points:
// every distance between two of them overflows to +Inf, so no point has a
// neighbour k-NN selection can rank.
func overflowingPoints(doc map[string]any) [][]float64 {
	dim := len(doc["points"].([]any)[0].([]any))
	rows := make([][]float64, int(doc["k"].(float64))+1)
	for i := range rows {
		rows[i] = make([]float64, dim)
		rows[i][i%dim] = 1e308
	}
	return rows
}

// FuzzLoadModel feeds arbitrary bytes to the model-file loader, seeded
// with a saved model, a file whose points have no dimensions and one whose
// points are all at an infinite distance from each other. A file it
// rejects must come back as an error, never a panic; a file it accepts
// must save, and that file must load and save again to the same bytes.
func FuzzLoadModel(f *testing.F) {
	doc := savedModelJSON(f)
	points := doc["points"]
	for _, pts := range []any{points, zeroWidthPoints(doc), overflowingPoints(doc)} {
		doc["points"] = pts
		seed, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, learned, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := SaveModel(&first, cfg, learned); err != nil {
			t.Fatalf("an accepted model does not save: %v", err)
		}
		cfg, learned, err = LoadModel(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a saved model does not load: %v", err)
		}
		if err := SaveModel(&second, cfg, learned); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save → load → save changed the file:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestLoadModelFileNamesPath: the path-aware loader must prefix every
// failure — and succeed on the happy path — with the file involved.
func TestLoadModelFileNamesPath(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "nope.json")
	if _, _, err := LoadModelFile(missing); err == nil || !strings.Contains(err.Error(), "nope.json") {
		t.Fatalf("missing-file error %v does not name the path", err)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 42}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadModelFile(bad)
	if err == nil || !strings.Contains(err.Error(), "bad.json") ||
		!strings.Contains(err.Error(), "unsupported model file version 42") {
		t.Fatalf("bad-version error %v does not name path and version", err)
	}

	good := filepath.Join(dir, "good.json")
	doc := savedModelJSON(t)
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, learned, err := LoadModelFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if learned.Model.Len() == 0 || cfg.NumTypes != testConfig().NumTypes {
		t.Fatalf("loaded model malformed: %d points, %d types", learned.Model.Len(), cfg.NumTypes)
	}
}

// retiredKeys are the keys of retired model-file fields that version-1
// files written by older builds still carry: "use_vptree" from when the
// index was selectable, "seed", "condense_target" and "condense" from
// reference-set condensation, and "fast_kernels" from the approximate
// scoring mode.
var retiredKeys = map[string]any{
	"use_vptree":      true,
	"seed":            7,
	"condense_target": 40,
	"condense":        map[string]any{"original_n": 100, "kept_n": 40, "train_p50": 1.1, "train_p90": 1.3, "train_p95": 1.5, "train_p99": 2},
	"fast_kernels":    true,
}

// loadDoc loads a model document and returns it with what it re-saves to.
func loadDoc(t *testing.T, doc map[string]any) (Config, *Learned, []byte) {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	cfg, learned, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := SaveModel(&resaved, cfg, learned); err != nil {
		t.Fatal(err)
	}
	return cfg, learned, resaved.Bytes()
}

// TestLoadModelIgnoresRetiredIndexKey: SaveModel writes none of
// retiredKeys, and a file that has them loads to the same configuration,
// re-saves to the same bytes and scores bit for bit like the same file
// without them — exactly, whatever fast_kernels says — on a metric LOF
// distance, where use_vptree once selected the tree, and on the KL family,
// where a condense target or fast_kernels once switched on the
// approximate kernels.
func TestLoadModelIgnoresRetiredIndexKey(t *testing.T) {
	ws, err := window.Collect(trace.NewSliceReader(perturbedRun()), testConfig().NewWindower())
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []string{"hellinger", "symkl"} {
		doc := savedModelJSON(t)
		for key := range retiredKeys {
			if _, ok := doc[key]; ok {
				t.Fatalf("SaveModel still writes %s", key)
			}
		}
		doc["lof_distance"] = dist
		_, fresh, freshSaved := loadDoc(t, doc)
		for key, v := range retiredKeys {
			doc[key] = v
		}
		_, old, oldSaved := loadDoc(t, doc)

		if !bytes.Equal(oldSaved, freshSaved) {
			t.Fatalf("%s: a model file with the retired keys re-saves differently from one without them", dist)
		}
		for i := 0; i < fresh.Model.Len(); i++ {
			if a, b := old.Model.ScoreTrain(i), fresh.Model.ScoreTrain(i); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: train score %d: %v with the retired keys, %v without", dist, i, a, b)
			}
		}
		for _, w := range ws {
			q := fresh.Featurizer.Features(w)
			if a, b := old.Model.Score(q), fresh.Model.Score(q); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: window %d: LOF %v with the retired keys, %v without", dist, w.Index, a, b)
			}
		}
	}
}

// TestLoadModelRetiredKeysDecideExactly: a mediasim model file that an
// older build saved with the retired keys — "fast_kernels": true among
// them — loads, re-saves without them, and decides a short mediasim trace
// with a load storm byte for byte as the same file without them does.
func TestLoadModelRetiredKeysDecideExactly(t *testing.T) {
	sim := func(seed int64, load perturb.Load) trace.Reader {
		sc := mediasim.DefaultConfig()
		sc.Duration, sc.Seed, sc.Load = 20*time.Second, seed, load
		r, err := mediasim.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cfg := NewConfig(mediasim.NumEventTypes)
	learned, err := Learn(cfg, sim(31, perturb.None{}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, cfg, learned); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	storm, err := perturb.Periodic(3, 5*time.Second, 10*time.Second, 3*time.Second, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	decide := func() (decisions, saved []byte) {
		cfg, learned, saved := loadDoc(t, doc)
		mon, err := NewMonitor(cfg, learned)
		if err != nil {
			t.Fatal(err)
		}
		var trips int
		if _, err := mon.Run(sim(32, storm), nil, func(d Decision) error {
			decisions = appendDecision(decisions, d)
			if d.GateTripped {
				trips++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if trips == 0 {
			t.Fatal("no window tripped the gate: the trace does not reach LOF")
		}
		return decisions, saved
	}
	want, wantSaved := decide()
	for key, v := range retiredKeys {
		doc[key] = v
	}
	got, gotSaved := decide()
	for key := range retiredKeys {
		if bytes.Contains(gotSaved, []byte(`"`+key+`"`)) {
			t.Fatalf("a model file loaded with %s re-saves with it", key)
		}
	}
	if !bytes.Equal(gotSaved, wantSaved) {
		t.Fatal("a model file with the retired keys re-saves differently from one without them")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("a model file with the retired keys decides differently: %d decision bytes against %d", len(got), len(want))
	}
}

// appendDecision appends every field of d to b, floats as their bits.
func appendDecision(b []byte, d Decision) []byte {
	for _, v := range []uint64{uint64(d.Window.Index), uint64(d.Window.Start), uint64(d.Window.End),
		uint64(len(d.Window.Events)), math.Float64bits(d.GateDist), math.Float64bits(d.LOF)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, f := range d.Features {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	var flags byte
	if d.GateTripped {
		flags |= 1
	}
	if d.Anomalous {
		flags |= 2
	}
	return append(b, flags)
}
