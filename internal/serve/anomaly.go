package serve

import (
	"time"

	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/window"
)

// DefaultAnomalyContext is the number of pre-trip context windows an
// incident carries.
const DefaultAnomalyContext = 2

// tripsInFlight is how many of a stream's incidents may be written and
// not yet waited for. A power cut loses at most this many plus the one
// being written, per stream — fewer than the windows a full default event
// queue holds unscored, which a crash loses anyway — and 8 trips of
// scoring outlast a typical fsync several times over.
const tripsInFlight = 8

// incidentStore is what a trip recorder needs of the anomaly store.
// Servers install *anomalystore.Store; the tests substitute a fake whose
// durability they release.
type incidentStore interface {
	Submit(inc anomalystore.Incident) (uint64, error)
	WaitDurable(seq uint64) error
}

// tripRecorder is one stream's hook into the anomaly store: it rides the
// monitor's per-window decision callback, keeps a small ring of the most
// recent quiet windows, and on every gate trip persists an incident — the
// context ring plus the tripped window — with the full scoring verdict.
// It keeps up to tripsInFlight records in flight: a trip is written at
// once and the stream scores on while the store's committer fsyncs it;
// only when tripsInFlight are already unsettled does a trip wait, for the
// oldest. Incidents are booked oldest first, each once its fsync has
// returned. Store failures are counted and logged but never propagated:
// losing the forensic copy must not kill the live stream.
type tripRecorder struct {
	srv      *Server
	store    incidentStore
	st       *stream
	modelGen int64
	ring     *window.Ring    // copies of the last quiet windows
	windows  []window.Window // the incident being submitted; the store does not retain it
	// pending holds the submitted, unsettled incidents' sequence numbers:
	// a FIFO of n entries starting at head.
	pending [tripsInFlight]uint64
	head, n int
	logged  bool
}

// newTripRecorder builds the hook for one registered stream. The
// decisions' windows are lent by the monitor's windower, so the context
// ring keeps copies, in per-slot buffers it reuses: a quiet window
// allocates nothing.
func (s *Server) newTripRecorder(st *stream) *tripRecorder {
	return &tripRecorder{
		srv:      s,
		store:    s.opts.Anomalies,
		st:       st,
		modelGen: s.models.Generation(),
		ring:     window.NewRing(DefaultAnomalyContext),
	}
}

// onDecision is the core.Monitor.Run callback. It runs on the stream's
// scoring goroutine; the store itself serialises concurrent writes.
func (t *tripRecorder) onDecision(d core.Decision) error {
	if !d.GateTripped {
		t.ring.Push(d.Window)
		return nil
	}

	t.windows = append(append(t.windows[:0], t.ring.Windows()...), d.Window)
	t.ring.Reset()

	// Submit first, then wait for the oldest trip if the FIFO is full: the
	// new record is in the file before the committer picks its next batch,
	// so it rides the flush that starts when the current one ends. The
	// other order misses that flush by the few microseconds the write
	// takes.
	inc := anomalystore.IncidentOf(d.Verdict)
	inc.Stream, inc.Model, inc.ModelGen = t.st.id, t.st.model.Name, t.modelGen
	//lint:ignore monotime incidents persist a wall-clock timestamp for operators and replay
	inc.Wall = time.Now()
	inc.Windows = t.windows
	seq, err := t.store.Submit(inc)
	if err != nil {
		t.failed(err)
		return nil
	}
	if t.n == len(t.pending) {
		t.settleOldest()
	}
	t.pending[(t.head+t.n)%len(t.pending)] = seq
	t.n++
	t.srv.anomInFlight.Add(1)
	return nil
}

// settle waits until every incident in flight is durable and books them,
// oldest first. score calls it after Monitor.Run has returned, so a
// closed stream's books are final: persisted + failed == gate trips.
func (t *tripRecorder) settle() {
	for t.n > 0 {
		t.settleOldest()
	}
}

// settleOldest waits for the oldest incident in flight and books it.
func (t *tripRecorder) settleOldest() {
	seq := t.pending[t.head]
	t.head = (t.head + 1) % len(t.pending)
	t.n--
	if err := t.store.WaitDurable(seq); err != nil {
		t.failed(err)
	} else {
		t.srv.anomIncidents.Add(1)
	}
	t.srv.anomInFlight.Add(-1)
}

func (t *tripRecorder) failed(err error) {
	t.srv.anomStoreErrs.Add(1)
	if !t.logged {
		t.logged = true // one line per stream, not one per trip
		t.srv.log.Error("anomaly store append failed (stream continues)",
			"stream", t.st.id, "err", err)
	}
}
