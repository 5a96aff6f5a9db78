package obs

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"
)

// TestVerdictJSON pins the one verdict object: its keys, its units
// (seconds for the span) and null for every non-finite float.
func TestVerdictJSON(t *testing.T) {
	v := Verdict{
		WindowIndex: 7, Start: 280 * time.Millisecond, End: 320 * time.Millisecond,
		GateDist: math.Inf(1), GateThreshold: 0.1, LOF: math.NaN(), Alpha: 2.5,
		GateTripped: true,
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("non-finite verdict failed to marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"alpha", "anomalous", "end_s", "gate_dist", "gate_threshold", "gate_tripped", "lof", "start_s", "window"}
	if !slices.Equal(keys, want) {
		t.Fatalf("verdict keys %v, want %v", keys, want)
	}
	if m["gate_dist"] != nil || m["lof"] != nil {
		t.Fatalf("non-finite floats not null: %s", b)
	}
	if m["window"] != 7.0 || m["start_s"] != 0.28 || m["end_s"] != 0.32 ||
		m["gate_threshold"] != 0.1 || m["alpha"] != 2.5 || m["gate_tripped"] != true || m["anomalous"] != false {
		t.Fatalf("finite fields mangled: %s", b)
	}
}
