package serve

import (
	"time"

	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/window"
)

// DefaultAnomalyContext is the number of pre-trip context windows an
// incident carries when Options.AnomalyContext is zero.
const DefaultAnomalyContext = 2

// tripRecorder is one stream's hook into the anomaly store: it rides the
// monitor's per-window decision callback, keeps a small ring of the most
// recent quiet windows, and on every gate trip persists an incident — the
// context ring plus the tripped window — with the full scoring verdict.
// It keeps one record in flight: a trip is written at once and the stream
// scores on while the store's committer fsyncs it; the next trip (or the
// end of the stream) waits for it. Store failures are counted and logged
// but never propagated: losing the forensic copy must not kill the live
// stream.
type tripRecorder struct {
	srv      *Server
	store    *anomalystore.Store
	st       *stream
	modelGen int64
	pre      int
	ring     []window.Window
	windows  []window.Window // the incident being submitted; the store does not retain it
	inFlight uint64          // sequence number of the submitted, unsettled incident; 0 = none
	logged   bool
}

// newTripRecorder builds the hook for one registered stream. Window
// retention is safe: the windower hands out freshly copied event slices.
func (s *Server) newTripRecorder(st *stream) *tripRecorder {
	pre := s.opts.AnomalyContext
	if pre == 0 {
		pre = DefaultAnomalyContext
	}
	if pre < 0 {
		pre = 0
	}
	return &tripRecorder{
		srv:      s,
		store:    s.opts.Anomalies,
		st:       st,
		modelGen: s.models.Generation(),
		pre:      pre,
	}
}

// onDecision is the core.Monitor.Run callback. It runs on the stream's
// scoring goroutine; the store itself serialises concurrent writes.
func (t *tripRecorder) onDecision(d core.Decision) error {
	if !d.GateTripped {
		if t.pre > 0 {
			t.ring = append(t.ring, d.Window)
			if len(t.ring) > t.pre {
				// Shift in place; the ring is tiny (AnomalyContext windows).
				copy(t.ring, t.ring[1:])
				t.ring = t.ring[:t.pre]
			}
		}
		return nil
	}

	t.windows = append(append(t.windows[:0], t.ring...), d.Window)
	t.ring = t.ring[:0]

	// Submit first, then wait for the previous trip: the new record is in
	// the file before the committer picks its next batch, so it rides the
	// flush that starts when the previous one ends. The other order misses
	// that flush by the few microseconds the write takes.
	seq, err := t.store.Submit(anomalystore.Incident{
		Stream:   t.st.id,
		Model:    t.st.model.Name,
		ModelGen: t.modelGen,
		//lint:ignore monotime incidents persist a wall-clock timestamp for operators and replay
		Wall:        time.Now(),
		Score:       d.LOF,
		GateDist:    d.GateDist,
		Alpha:       t.st.model.Cfg.Alpha,
		Anomalous:   d.Anomalous,
		WindowIndex: d.Window.Index,
		Start:       d.Window.Start,
		End:         d.Window.End,
		Windows:     t.windows,
	})
	t.settle()
	if err != nil {
		t.failed(err)
		return nil
	}
	t.inFlight = seq
	return nil
}

// settle waits until the incident in flight, if any, is durable and books
// it. score calls it once more after Monitor.Run has returned, so a
// closed stream's books are final: persisted + failed == gate trips.
func (t *tripRecorder) settle() {
	if t.inFlight == 0 {
		return
	}
	err := t.store.WaitDurable(t.inFlight)
	t.inFlight = 0
	if err != nil {
		t.failed(err)
		return
	}
	t.srv.anomIncidents.Add(1)
}

func (t *tripRecorder) failed(err error) {
	t.srv.anomStoreErrs.Add(1)
	if !t.logged {
		t.logged = true // one line per stream, not one per trip
		t.srv.log.Error("anomaly store append failed (stream continues)",
			"stream", t.st.id, "err", err)
	}
}
