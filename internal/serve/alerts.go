package serve

import (
	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
)

// persistAlertTransition is the alert pipeline's transition hook: every
// firing/resolved transition becomes a window-free incident record in the
// anomaly store, so `enduratrace replay` and GET /anomalies show alert
// history interleaved with the gate trips that caused it. Installed by New
// when both Options.Alerts and Options.Anomalies are set; runs on the
// stream's scoring goroutine, before rate limiting (a transition the
// operator was never paged for is still on the forensic record).
// Store failures are counted and logged once, never propagated — same
// policy as the gate-trip tripRecorder.
func (s *Server) persistAlertTransition(n alert.Notification) {
	inc := anomalystore.IncidentOf(n.Verdict)
	inc.Stream, inc.Model, inc.ModelGen = n.Stream, n.Model, s.models.Generation()
	inc.Wall, inc.Alert = n.Wall, n.Kind.String()
	_, err := s.opts.Anomalies.Append(inc)
	if err != nil {
		s.alertPersistErrs.Add(1)
		if s.alertErrLogged.CompareAndSwap(false, true) {
			s.log.Error("alert transition append failed (alerting continues)",
				"stream", n.Stream, "err", err)
		}
		return
	}
	s.alertPersisted.Add(1)
}
