package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"enduratrace/internal/anomalystore"
	"enduratrace/internal/obs"
)

// flightReport is the GET /debug/flight body.
type flightReport struct {
	Stats   obs.FlightStats `json:"stats"`
	Records []obs.Record    `json:"records"`
}

// healthReport is the /healthz body.
type healthReport struct {
	Status       string        `json:"status"`
	UptimeS      obs.JSONFloat `json:"uptime_s"`
	StreamsLive  int           `json:"streams_live"`
	ModelPoints  int           `json:"model_points"`
	Models       []string      `json:"models"`
	DefaultModel string        `json:"default_model"`
}

// adminMux builds the admin endpoints:
//
//	GET  /healthz       liveness + model registry identity
//	GET  /streams       live streams with queue/sink counters + stall flags
//	GET  /stats         aggregate totals in the `monitor -json` report shape
//	GET  /metrics       Prometheus text exposition, one row of families each
//	GET  /anomalies     anomaly store stats + recent incidents (?n, ?seq)
//	GET  /alerts        alert pipeline books, stream states, recent notifications
//	GET  /debug/flight  sampled per-event pipeline timings (flight recorder)
//	GET  /debug/pprof/  net/http/pprof (only with Options.EnablePprof)
//	POST /reload        hot-reload the model registry from its directory
func (s *Server) adminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		views, _ := s.snapshot()
		writeJSON(w, http.StatusOK, healthReport{
			Status:       "ok",
			UptimeS:      obs.JSONFloat(time.Since(s.start).Seconds()),
			StreamsLive:  len(views),
			ModelPoints:  s.models.Default().Learned.Model.Len(),
			Models:       s.models.Names(),
			DefaultModel: s.models.DefaultName(),
		})
	})
	mux.HandleFunc("GET /streams", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Streams())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /anomalies", func(w http.ResponseWriter, r *http.Request) {
		s.handleAnomalies(w, r)
	})
	mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, r *http.Request) {
		if s.opts.Alerts == nil {
			writeJSON(w, http.StatusNotFound, struct {
				Error string `json:"error"`
			}{"no alert pipeline attached (start the daemon with -alert-log or -alert-webhook)"})
			return
		}
		writeJSON(w, http.StatusOK, s.opts.Alerts.Snapshot())
	})
	mux.HandleFunc("GET /debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if s.flight == nil {
			writeJSON(w, http.StatusNotFound, struct {
				Error string `json:"error"`
			}{"flight recorder disabled (negative -flight-every)"})
			return
		}
		writeJSON(w, http.StatusOK, flightReport{
			Stats:   s.flight.Stats(),
			Records: s.flight.Records(),
		})
	})
	if s.opts.EnablePprof {
		// The handlers are mounted explicitly (net/http/pprof's init only
		// touches http.DefaultServeMux, which this server does not use).
		// Profile captures run for their ?seconds= argument — longer than
		// the admin server's WriteTimeout — so the deadline is pushed out
		// for the capture, like the /reload handler does for model loads.
		profiled := func(h http.HandlerFunc) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				rc := http.NewResponseController(w)
				//lint:ignore monotime net deadlines are wall-clock time.Time by API contract
				rc.SetWriteDeadline(time.Now().Add(10 * time.Minute))
				h(w, r)
			}
		}
		mux.HandleFunc("GET /debug/pprof/", profiled(pprof.Index))
		mux.HandleFunc("GET /debug/pprof/cmdline", profiled(pprof.Cmdline))
		mux.HandleFunc("GET /debug/pprof/profile", profiled(pprof.Profile))
		mux.HandleFunc("GET /debug/pprof/symbol", profiled(pprof.Symbol))
		mux.HandleFunc("GET /debug/pprof/trace", profiled(pprof.Trace))
	}
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			s.log.Error("metrics write failed", "err", err)
		}
	})
	mux.HandleFunc("POST /reload", func(w http.ResponseWriter, r *http.Request) {
		// Reload re-reads every model inline — a JSON decode, an index
		// build and a sample check of the stored fit each, no refit —
		// which can outlast the admin server's WriteTimeout (set at
		// header-read time) on big registries: the swap would succeed but
		// the response write would hit the stale deadline and report
		// failure. Push the deadline out past the load.
		rc := http.NewResponseController(w)
		//lint:ignore monotime net deadlines are wall-clock time.Time by API contract
		rc.SetWriteDeadline(time.Now().Add(10 * time.Minute))
		rep, err := s.Reload()
		//lint:ignore monotime net deadlines are wall-clock time.Time by API contract
		rc.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err != nil {
			writeJSON(w, http.StatusConflict, struct {
				Error string `json:"error"`
			}{err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	return mux
}

// anomaliesReport is the default GET /anomalies body: store books plus the
// most recent incident metas (newest last).
type anomaliesReport struct {
	Store     anomalystore.StoreStats     `json:"store"`
	Incidents int64                       `json:"incidents"`
	Errors    int64                       `json:"append_errors"`
	Recent    []anomalystore.IncidentMeta `json:"recent"`
}

// incidentDetail is the GET /anomalies?seq=N body: the incident's metadata
// plus a row per carried window (events stay on disk; replay reads them).
type incidentDetail struct {
	anomalystore.IncidentMeta
	ContextWindows []incidentWindow `json:"context_windows"`
}

type incidentWindow struct {
	Index  int           `json:"index"`
	StartS obs.JSONFloat `json:"start_s"`
	EndS   obs.JSONFloat `json:"end_s"`
	Events int           `json:"events"`
}

// handleAnomalies serves the anomaly store's admin view. Without a store
// attached (-anomaly-store unset) the endpoint 404s with an explanation.
func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	store := s.opts.Anomalies
	if store == nil {
		writeJSON(w, http.StatusNotFound, struct {
			Error string `json:"error"`
		}{"no anomaly store attached (start the daemon with -anomaly-store)"})
		return
	}
	if seqStr := r.URL.Query().Get("seq"); seqStr != "" {
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, struct {
				Error string `json:"error"`
			}{"bad seq: " + err.Error()})
			return
		}
		inc, err := store.Get(seq)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, anomalystore.ErrNotFound) {
				status = http.StatusNotFound
			}
			writeJSON(w, status, struct {
				Error string `json:"error"`
			}{err.Error()})
			return
		}
		detail := incidentDetail{IncidentMeta: inc.Meta()}
		for _, win := range inc.Windows {
			detail.ContextWindows = append(detail.ContextWindows, incidentWindow{
				Index:  win.Index,
				StartS: obs.JSONFloat(win.Start.Seconds()),
				EndS:   obs.JSONFloat(win.End.Seconds()),
				Events: len(win.Events),
			})
		}
		writeJSON(w, http.StatusOK, detail)
		return
	}
	n := 50
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		v, err := strconv.Atoi(nStr)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, struct {
				Error string `json:"error"`
			}{"bad n: must be a non-negative integer"})
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, anomaliesReport{
		Store:     store.Stats(),
		Incidents: s.anomIncidents.Load(),
		Errors:    s.anomStoreErrs.Load(),
		Recent:    store.Recent(n),
	})
}

// writeJSON answers with v as indented JSON under status. v is encoded
// before the status goes out, so a value JSON cannot encode (a non-finite
// float) answers 500 with a JSON error body, not status with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		enc.Encode(struct {
			Error string `json:"error"`
		}{"encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore errsink the status has gone out; a client that stops reading has nothing left to be told
	w.Write(buf.Bytes())
}

// adminShutdownTimeout bounds how long a stalled admin client can delay
// daemon shutdown before its connection is cut.
const adminShutdownTimeout = 3 * time.Second

// newAdminServer builds the admin http.Server with every I/O timeout set:
// the admin port faces operators and scrapers, but a stalled or malicious
// client must never pin a handler goroutine (or shutdown) forever, so
// reads, writes and idle keep-alives all have deadlines.
func (s *Server) newAdminServer() *http.Server {
	return &http.Server{
		Handler:           s.adminMux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// serveAdmin runs the admin HTTP server until the listener closes (during
// Server shutdown, after the streams have drained — so /stats stays
// queryable through the drain).
func (s *Server) serveAdmin(srv *http.Server) {
	srv.Serve(s.adminLn) // returns when adminLn closes
}

// shutdownAdmin gracefully stops the admin server, waiting at most
// adminShutdownTimeout for in-flight responses before force-closing.
func (s *Server) shutdownAdmin(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), adminShutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
}
