package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"enduratrace/internal/distance"
	"enduratrace/internal/lof"
	"enduratrace/internal/pmf"
)

// modelFile is the on-disk form of a learned model: the full monitor
// configuration (distances by catalogue name), the reference feature
// points and the LOF fit over them — per point, the k-distance, local
// reachability density and train LOF that lof.Model.Fitted hands out.
// Loading restores the model from the fit (lof.Restore) instead of
// fitting again; a file of an older version, which holds no fit, is
// refused and must be learned again. A file that needs what is gone — a
// distance the catalogue no longer holds — is refused by name.
type modelFile struct {
	Version       int     `json:"version"`
	NumTypes      int     `json:"num_types"`
	WindowNS      int64   `json:"window_ns"`
	K             int     `json:"k"`
	Alpha         float64 `json:"alpha"`
	GateThreshold float64 `json:"gate_threshold"`
	GateDistance  string  `json:"gate_distance"`
	LOFDistance   string  `json:"lof_distance"`
	MergeLambda   float64 `json:"merge_lambda"`
	Smoothing     float64 `json:"smoothing"`
	IncludeRate   bool    `json:"include_rate"`
	RateScale     float64 `json:"rate_scale"`

	// Auto gate calibration: the threshold derived from the reference
	// trace's gate-distance quantiles (see Config.GateAuto).
	GateAuto          bool    `json:"gate_auto,omitempty"`
	GateAutoQuantile  float64 `json:"gate_auto_quantile,omitempty"`
	AutoGateThreshold float64 `json:"auto_gate_threshold,omitempty"`

	Points [][]float64 `json:"points"`
	KDist  []float64   `json:"kdist"`
	LRD    []float64   `json:"lrd"`
	Train  []float64   `json:"train_lof"`
}

const modelFileVersion = 2

// SaveModel serialises a learned model together with the configuration it
// was learned under, so `enduratrace monitor` can reconstruct both. The
// configured distances must come from the distance catalogue (have names).
func SaveModel(w io.Writer, cfg Config, l *Learned) error {
	if l == nil || l.Model == nil {
		return fmt.Errorf("core: saving nil model")
	}
	if cfg.GateDistance.Name == "" || cfg.LOFDistance.Name == "" {
		return fmt.Errorf("core: cannot save a model with unnamed distances")
	}
	gateThreshold := cfg.GateThreshold
	if cfg.GateAuto && l.AutoGateThreshold > 0 {
		// Auto-gated models write the calibrated value into the plain
		// gate_threshold field too, so a consumer that predates (or
		// ignores) the gate_auto fields still monitors with the right
		// gate instead of the stale fixed default.
		gateThreshold = l.AutoGateThreshold
	}
	kdist, lrd, train := l.Model.Fitted()
	mf := modelFile{
		Version:           modelFileVersion,
		NumTypes:          cfg.NumTypes,
		WindowNS:          int64(cfg.WindowDuration),
		K:                 cfg.K,
		Alpha:             cfg.Alpha,
		GateThreshold:     gateThreshold,
		GateDistance:      cfg.GateDistance.Name,
		LOFDistance:       cfg.LOFDistance.Name,
		MergeLambda:       cfg.MergeLambda,
		Smoothing:         cfg.Smoothing,
		IncludeRate:       cfg.IncludeRate,
		RateScale:         l.Featurizer.RateScale,
		GateAuto:          cfg.GateAuto,
		GateAutoQuantile:  cfg.GateAutoQuantile,
		AutoGateThreshold: l.AutoGateThreshold,
		Points:            l.Model.PointRows(),
		KDist:             kdist,
		LRD:               lrd,
		Train:             train,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&mf)
}

// LoadModel reads a model saved by SaveModel, restores its LOF model from
// the stored fit (lof.Restore, which re-checks a sample of it) and returns
// the configuration alongside the learned model. LoadModelFile is
// the path-aware variant whose errors name the offending file.
func LoadModel(r io.Reader) (Config, *Learned, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return Config{}, nil, fmt.Errorf("core: decoding model file: %w", err)
	}
	if mf.Version != modelFileVersion {
		err := fmt.Errorf("core: unsupported model file version %d (this build supports version %d)",
			mf.Version, modelFileVersion)
		if mf.Version < modelFileVersion {
			err = fmt.Errorf("%w: it holds no fit, learn it again", err)
		}
		return Config{}, nil, err
	}
	if len(mf.Points) == 0 {
		return Config{}, nil, fmt.Errorf("core: model file has no reference points")
	}
	gate, err := distance.ByName(mf.GateDistance)
	if err != nil {
		return Config{}, nil, fmt.Errorf("core: model gate distance: %w", err)
	}
	lofDist, err := distance.ByName(mf.LOFDistance)
	if err != nil {
		return Config{}, nil, fmt.Errorf("core: model LOF distance: %w", err)
	}
	cfg := Config{
		NumTypes:         mf.NumTypes,
		WindowDuration:   time.Duration(mf.WindowNS),
		K:                mf.K,
		Alpha:            mf.Alpha,
		GateThreshold:    mf.GateThreshold,
		GateDistance:     gate,
		LOFDistance:      lofDist,
		MergeLambda:      mf.MergeLambda,
		Smoothing:        mf.Smoothing,
		IncludeRate:      mf.IncludeRate,
		GateAuto:         mf.GateAuto,
		GateAutoQuantile: mf.GateAutoQuantile,
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, nil, fmt.Errorf("core: model file config: %w", err)
	}
	model, err := lof.Restore(mf.Points, mf.K, lofDist, mf.KDist, mf.LRD, mf.Train)
	if errors.Is(err, lof.ErrStaleFit) {
		return Config{}, nil, fmt.Errorf("core: restoring model: %w: learn it again", err)
	}
	if err != nil {
		return Config{}, nil, fmt.Errorf("core: restoring model: %w", err)
	}
	learned := &Learned{
		Model: model,
		Featurizer: pmf.Featurizer{
			Dim:         mf.NumTypes,
			Smoothing:   mf.Smoothing,
			IncludeRate: mf.IncludeRate,
			RateScale:   mf.RateScale,
		},
		AutoGateThreshold: mf.AutoGateThreshold,
	}
	return cfg, learned, nil
}

// LoadModelFile opens and loads one model file, wrapping every failure —
// open, decode, version, restore — with the path so multi-model directory
// loads report which file broke.
func LoadModelFile(path string) (Config, *Learned, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, nil, fmt.Errorf("core: model %s: %w", path, err)
	}
	defer f.Close()
	cfg, learned, err := LoadModel(f)
	if err != nil {
		return Config{}, nil, fmt.Errorf("core: model %s: %w", path, err)
	}
	return cfg, learned, nil
}
