package obs

import (
	"encoding/json"
	"time"
)

// Verdict is the monitor's decision on one window (§II): the gate
// distance against its threshold, then, where the gate tripped, LOF
// against α. The flight recorder, alert notifications, anomaly-store
// incidents and replay all carry this one value.
type Verdict struct {
	WindowIndex int
	Start, End  time.Duration // the window's span in stream trace time
	// GateDist is exact on a tripped window; core.Decision says when a
	// quiet one carries a bound.
	GateDist, GateThreshold float64
	LOF, Alpha              float64 // LOF is NaN where the gate did not trip
	// GateTripped means LOF was computed; Anomalous means LOF >= Alpha.
	GateTripped, Anomalous bool
}

// MarshalJSON writes every non-finite float as null (GateDist is +Inf on
// a stream's first window). A struct holds a Verdict as a named field: an
// embedded one would promote this marshaler and drop the struct's own.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Window        int       `json:"window"`
		StartS        JSONFloat `json:"start_s"`
		EndS          JSONFloat `json:"end_s"`
		GateDist      JSONFloat `json:"gate_dist"`
		GateThreshold JSONFloat `json:"gate_threshold"`
		GateTripped   bool      `json:"gate_tripped"`
		LOF           JSONFloat `json:"lof"`
		Alpha         JSONFloat `json:"alpha"`
		Anomalous     bool      `json:"anomalous"`
	}{
		Window:        v.WindowIndex,
		StartS:        JSONFloat(v.Start.Seconds()),
		EndS:          JSONFloat(v.End.Seconds()),
		GateDist:      JSONFloat(v.GateDist),
		GateThreshold: JSONFloat(v.GateThreshold),
		GateTripped:   v.GateTripped,
		LOF:           JSONFloat(v.LOF),
		Alpha:         JSONFloat(v.Alpha),
		Anomalous:     v.Anomalous,
	})
}
