package anomalystore

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
)

// TestReplayReportEncodesNonFinite: a store may hold an incident whose
// recorded LOF is +Inf, and the replay report must still encode, with
// that LOF as null in the incident's recorded verdict.
func TestReplayReportEncodesNonFinite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := testIncident(0)
	inc.Score = math.Inf(1)
	if _, err := s.Append(inc); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	sc := mediasim.DefaultConfig()
	sc.Duration = 10 * time.Second
	sim, err := mediasim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig(mediasim.NumEventTypes)
	learned, err := core.Learn(cfg, sim)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(dir, []*core.NamedModel{{Name: "default", Cfg: cfg, Learned: learned}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("replay report with a +Inf recorded LOF failed to encode: %v", err)
	}
	var got struct {
		Models []struct {
			Verdicts []struct {
				Recorded map[string]any `json:"recorded"`
				LOF      *float64       `json:"lof"`
			} `json:"verdicts"`
		} `json:"models"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Models) != 1 || len(got.Models[0].Verdicts) != 1 {
		t.Fatalf("report %s: want one model with one verdict", b)
	}
	v := got.Models[0].Verdicts[0]
	if lof, ok := v.Recorded["lof"]; !ok || lof != nil {
		t.Fatalf("recorded verdict %v, want \"lof\": null", v.Recorded)
	}
	if v.LOF == nil {
		t.Fatalf("replay LOF null, want the replay model's finite score: %s", b)
	}
}
