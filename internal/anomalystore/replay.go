package anomalystore

import (
	"fmt"

	"enduratrace/internal/core"
	"enduratrace/internal/obs"
)

// Verdict classifies one incident's replay outcome against its recorded
// outcome. The interesting transitions are Lost (a model regression: the
// evidence that tripped in production no longer scores anomalous) and
// NewDetection (a candidate improvement, or a threshold lowered too far).
type Verdict string

const (
	// VerdictStillDetected: recorded anomalous, still anomalous on replay.
	VerdictStillDetected Verdict = "still-detected"
	// VerdictLost: recorded anomalous, but the replay model clears it.
	VerdictLost Verdict = "lost"
	// VerdictNewDetection: recorded below alpha (a gate trip that LOF
	// cleared), but the replay model flags it.
	VerdictNewDetection Verdict = "new-detection"
	// VerdictStillClear: below alpha then, below alpha now.
	VerdictStillClear Verdict = "still-clear"
)

// IncidentVerdict is one incident re-scored under one model.
type IncidentVerdict struct {
	Seq      uint64 `json:"seq"`
	Stream   string `json:"stream"`
	WallTime string `json:"wall"`
	// RecordedModel and Recorded are the model that scored the incident
	// live and the verdict the daemon persisted at trip time.
	RecordedModel string      `json:"recorded_model"`
	Recorded      obs.Verdict `json:"recorded"`
	// LOF is the replay model's LOF of the incident's principal (tripped)
	// window; MaxContextLOF is the max LOF across all carried windows,
	// context included — an anomaly that shifted a window under the replay
	// model's eye still shows up there.
	LOF           obs.JSONFloat `json:"lof"`
	MaxContextLOF obs.JSONFloat `json:"max_context_lof"`
	Detected      bool          `json:"detected"`
	Verdict       Verdict       `json:"verdict"`
}

// ModelReplay is the outcome of re-scoring every incident with one model.
type ModelReplay struct {
	Model string `json:"model"`
	// Alpha is the detection threshold applied on replay (the model's own,
	// or the what-if override).
	Alpha float64 `json:"alpha"`

	Incidents     int `json:"incidents"`
	StillDetected int `json:"still_detected"`
	Lost          int `json:"lost"`
	NewDetections int `json:"new_detections"`
	StillClear    int `json:"still_clear"`

	Verdicts []IncidentVerdict `json:"verdicts"`
}

// ReplayReport is the full replay outcome, shaped like the eval harness's
// reports (stable name field, flat JSON, one block per model).
type ReplayReport struct {
	Name  string `json:"name"`
	Store string `json:"store"`

	Incidents int `json:"incidents"`
	Segments  int `json:"segments"`
	// TruncatedSegments counts segments whose tail was damaged (crash);
	// their intact records are still replayed.
	TruncatedSegments int `json:"truncated_segments"`
	// AlphaOverride echoes the what-if threshold, nil when each model's
	// own alpha was used.
	AlphaOverride *float64 `json:"alpha_override"`

	Models []ModelReplay `json:"models"`
}

// Replay re-scores every incident in the store at dir against each given
// model and classifies the outcomes. A non-zero alphaOverride replaces
// every model's own threshold — the threshold what-if knob: replay the
// same evidence under a candidate alpha without touching production. It
// is validated as each model's Alpha, so a value below 1 or NaN is an
// error.
func Replay(dir string, models []*core.NamedModel, alphaOverride float64) (*ReplayReport, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("anomalystore: replay needs at least one model")
	}
	r, err := OpenReader(dir)
	if err != nil {
		return nil, err
	}

	rep := &ReplayReport{Name: "enduratrace-replay", Store: dir}
	if alphaOverride != 0 {
		a := alphaOverride
		rep.AlphaOverride = &a
	}

	type cell struct {
		mon *core.Monitor
		out *ModelReplay
	}
	cells := make([]cell, len(models))
	rep.Models = make([]ModelReplay, len(models))
	for i, nm := range models {
		cfg := nm.Cfg
		if alphaOverride != 0 {
			cfg.Alpha = alphaOverride
		}
		mon, err := core.NewMonitor(cfg, nm.Learned)
		if err != nil {
			return nil, fmt.Errorf("anomalystore: replay model %q: %w", nm.Name, err)
		}
		rep.Models[i] = ModelReplay{Model: nm.Name, Alpha: cfg.Alpha}
		cells[i] = cell{mon: mon, out: &rep.Models[i]}
	}

	var scores []float64 // each carried window's, scored once
	scans, err := r.Walk(func(inc *Incident) error {
		rep.Incidents++
		pi := inc.Principal()
		if pi < 0 {
			return nil // window-free incident: nothing to re-score
		}
		for _, c := range cells {
			scores = scores[:0]
			for _, w := range inc.Windows {
				scores = append(scores, c.mon.ScoreWindow(w))
			}
			score := scores[pi]
			maxScore := score
			for _, s := range scores {
				if s > maxScore {
					maxScore = s
				}
			}
			v := IncidentVerdict{
				Seq:           inc.Seq,
				Stream:        inc.Stream,
				WallTime:      inc.Meta().Wall,
				RecordedModel: inc.Model,
				Recorded:      inc.Verdict(),
				LOF:           obs.JSONFloat(score),
				MaxContextLOF: obs.JSONFloat(maxScore),
				Detected:      score >= c.out.Alpha,
			}
			c.out.Incidents++
			switch {
			case v.Recorded.Anomalous && v.Detected:
				v.Verdict = VerdictStillDetected
				c.out.StillDetected++
			case v.Recorded.Anomalous && !v.Detected:
				v.Verdict = VerdictLost
				c.out.Lost++
			case !v.Recorded.Anomalous && v.Detected:
				v.Verdict = VerdictNewDetection
				c.out.NewDetections++
			default:
				v.Verdict = VerdictStillClear
				c.out.StillClear++
			}
			c.out.Verdicts = append(c.out.Verdicts, v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Segments = len(scans)
	for _, s := range scans {
		if s.Truncated {
			rep.TruncatedSegments++
		}
	}
	return rep, nil
}
