package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/distance"
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
			wantSub: []string{"unsupported model file version 99", "supports version 2"},
		},
		{
			name:    "zero-version",
			mutate:  func(doc map[string]any) { doc["version"] = 0 },
			wantSub: []string{"unsupported model file version 0", "supports version 2"},
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
			name:    "deleted-gate-distance",
			mutate:  func(doc map[string]any) { doc["gate_distance"] = "hellinger" },
			wantSub: []string{"gate distance", `"hellinger"`},
		},
		{
			name:    "deleted-lof-distance",
			mutate:  func(doc map[string]any) { doc["lof_distance"] = "hellinger" },
			wantSub: []string{"LOF distance", `"hellinger"`},
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
			wantSub: []string{"restoring model", "reference set too small for K"},
		},
		{
			name:    "invalid-config",
			mutate:  func(doc map[string]any) { doc["k"] = -1 },
			wantSub: []string{"model file config"},
		},
		{
			name:    "zero-width-points",
			mutate:  func(doc map[string]any) { setPoints(doc, zeroWidthPoints(doc)) },
			wantSub: []string{"restoring model", "dimension 0"},
		},
		{
			name:    "overflowing-points",
			mutate:  func(doc map[string]any) { setPoints(doc, overflowingPoints(doc)) },
			wantSub: []string{"restoring model", "reference set too small for K", "finite distance"},
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

// fitKeys are the model file's per-point fit arrays.
var fitKeys = []string{"kdist", "lrd", "train_lof"}

// setPoints replaces doc's points with rows and cuts each fit array to as
// many entries, so that the file fails on its points and not on the
// arrays' length.
func setPoints(doc map[string]any, rows [][]float64) {
	doc["points"] = rows
	for _, key := range fitKeys {
		doc[key] = doc[key].([]any)[:len(rows)]
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
// with a saved model, a file whose points have no dimensions, one whose
// points are all at an infinite distance from each other and one whose
// row 0 carries a tampered lrd, which must be refused. A file it rejects
// must come back as an error, never a panic; a file it accepts must save,
// and that file must load and save again to the same bytes.
func FuzzLoadModel(f *testing.F) {
	marshal := func(doc map[string]any) []byte {
		seed, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		return seed
	}
	f.Add(marshal(savedModelJSON(f)))
	for _, rows := range []func(map[string]any) [][]float64{zeroWidthPoints, overflowingPoints} {
		doc := savedModelJSON(f)
		setPoints(doc, rows(doc))
		f.Add(marshal(doc))
	}
	doc := savedModelJSON(f)
	tamperLRD(doc)
	tampered := marshal(doc)
	if _, _, err := LoadModel(bytes.NewReader(tampered)); err == nil {
		f.Fatal("LoadModel accepted a file whose row 0 has a tampered lrd")
	}
	f.Add(tampered)

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

// retiredKeys are the keys of retired model-file fields that files
// written by older builds carried: "use_vptree" from when the index was
// selectable, "seed", "condense_target" and "condense" from reference-set
// condensation, "fast_kernels" from the approximate scoring mode, and
// "window_count" from count windows, and "ref_windows" and "mean_count",
// which repeated the point count and "rate_scale". The loader defines none
// of them, so it ignores them like any unknown key.
var retiredKeys = map[string]any{
	"use_vptree":      true,
	"seed":            7,
	"condense_target": 40,
	"condense":        map[string]any{"original_n": 100, "kept_n": 40, "train_p50": 1.1, "train_p90": 1.3, "train_p95": 1.5, "train_p99": 2},
	"fast_kernels":    true,
	"window_count":    0,
	"ref_windows":     500,
	"mean_count":      41.5,
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

// tamperLRD scales row 0's stored lrd by 1 + 2^-20: still positive and
// finite, no longer what its points give.
func tamperLRD(doc map[string]any) {
	lrd := doc["lrd"].([]any)
	lrd[0] = lrd[0].(float64) * (1 + 0x1p-20)
}

// TestLoadModelRestoresFit: Learn → SaveModel → LoadModel restores the
// fit, not refits it, and bit for bit: the loaded model's k-distances,
// lrds and train LOFs are the learned model's, and so is its Score of
// every window of perturbedRun, under both catalogue distances.
func TestLoadModelRestoresFit(t *testing.T) {
	ws, err := window.Collect(trace.NewSliceReader(perturbedRun()), testConfig().NewWindower())
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, dist := range []string{"kl", "symkl"} {
		cfg := testConfig()
		cfg.LOFDistance = distance.Must(dist)
		learned, err := Learn(cfg, trace.NewSliceReader(synth(0, 2*time.Second, refWeights, 1)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveModel(&buf, cfg, learned); err != nil {
			t.Fatal(err)
		}
		_, loaded, err := LoadModel(&buf)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		wantK, wantL, wantT := learned.Model.Fitted()
		gotK, gotL, gotT := loaded.Model.Fitted()
		if !bitsEqual(gotK, wantK) || !bitsEqual(gotL, wantL) || !bitsEqual(gotT, wantT) {
			t.Fatalf("%s: the loaded fit differs from the learned one", dist)
		}
		want, got := learned.Model.NewScorer(), loaded.Model.NewScorer()
		for _, w := range ws {
			q := learned.Featurizer.Features(w)
			if a, b := got.Score(q), want.Score(q); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: window %d: LOF %v loaded, %v learned", dist, w.Index, a, b)
			}
		}
	}
}

// TestLoadModelRefusesStaleFit: a file whose stored fit is not what its
// points, k and LOF distance give is refused, and so is a version-1 file,
// which holds no fit; each error says to learn the model again.
func TestLoadModelRefusesStaleFit(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(doc map[string]any)
		wantSub string
	}{
		{"version-1", func(doc map[string]any) {
			doc["version"] = 1
			for _, key := range fitKeys {
				delete(doc, key)
			}
		}, "unsupported model file version 1"},
		{"k", func(doc map[string]any) { doc["k"] = doc["k"].(float64) + 1 }, "stored fit does not match"},
		{"lof-distance", func(doc map[string]any) { doc["lof_distance"] = "kl" }, "stored fit does not match"},
		{"row-0-component", func(doc map[string]any) {
			row := doc["points"].([]any)[0].([]any)
			row[0] = row[0].(float64) * (1 + 0x1p-20)
		}, "stored fit does not match"},
		{"row-0-lrd", tamperLRD, "point 0's lrd"},
		{"short-kdist", func(doc map[string]any) {
			kd := doc["kdist"].([]any)
			doc["kdist"] = kd[:len(kd)-1]
		}, "k-distances for"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := savedModelJSON(t)
			if doc["lof_distance"] == "kl" {
				t.Fatal("the saved model already uses kl")
			}
			tc.mutate(doc)
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = LoadModel(bytes.NewReader(raw))
			if err == nil {
				t.Fatal("LoadModel accepted a stale model file")
			}
			for _, sub := range []string{tc.wantSub, "learn it again"} {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q does not mention %q", err, sub)
				}
			}
		})
	}
}

// TestLoadModelRetiredKeysDecideExactly: a mediasim model file that also
// carries the retired keys — "fast_kernels": true among them — loads,
// re-saves without them, and decides a short mediasim trace with a load
// storm byte for byte as the same file without them does.
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

// TestModelFileRoundTripsWithCopies: a mediasim reference repeats many
// windows' pmfs bit for bit, and the model stores each distinct point
// once. Learn → SaveModel → LoadModel → SaveModel still writes the same
// bytes twice, and every reference point the loaded model hands back,
// a copy of an earlier one included, has the bits of its saved point.
func TestModelFileRoundTripsWithCopies(t *testing.T) {
	sc := mediasim.DefaultConfig()
	sc.Duration, sc.Seed = 20*time.Second, 41
	sim, err := mediasim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(mediasim.NumEventTypes)
	learned, err := Learn(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := SaveModel(&first, cfg, learned); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(first.Bytes())
	cfg2, loaded, err := LoadModel(&first)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := SaveModel(&second, cfg2, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, second.Bytes()) {
		t.Fatalf("re-saved model file differs: %d bytes, then %d", len(saved), second.Len())
	}

	var doc struct {
		Points [][]float64 `json:"points"`
	}
	if err := json.Unmarshal(saved, &doc); err != nil {
		t.Fatal(err)
	}
	m := loaded.Model
	if m.Len() != len(doc.Points) {
		t.Fatalf("loaded %d points, the file holds %d", m.Len(), len(doc.Points))
	}
	key := func(p []float64) string {
		b := make([]byte, 0, 8*len(p))
		for _, x := range p {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return string(b)
	}
	seen := map[string]bool{}
	var copies int
	for i, p := range doc.Points {
		if key(m.Row(i)) != key(p) {
			t.Fatalf("point %d: Row %v, saved %v", i, m.Row(i), p)
		}
		if seen[key(p)] {
			copies++
		}
		seen[key(p)] = true
	}
	if copies == 0 {
		t.Fatal("no point repeats: the reference lost its point")
	}
	t.Logf("%d of %d points are copies of an earlier one", copies, len(doc.Points))
}
