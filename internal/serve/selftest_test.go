package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/obs"
	"enduratrace/internal/perturb"
	"enduratrace/internal/recorder"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// selftestOptions configures the loopback load generator.
type selftestOptions struct {
	// Cfg and Learned as in Options (the single-model path).
	Cfg     core.Config
	Learned *core.Learned
	// Models, when non-nil, serves from this registry instead of
	// Cfg/Learned. ClientModels assigns client i the model name
	// ClientModels[i%len(ClientModels)]: an empty string makes that client
	// send a version 1 frame header (no model field) and be served by the
	// default model; a non-empty name is sent in a version 2 header. Each
	// client's expected window count is computed with its resolved model's
	// windowing config.
	Models       *core.ModelRegistry
	ClientModels []string
	// ReloadMidRun POSTs /reload once every client is parked mid-stream,
	// proving a hot swap under load loses and double-counts nothing.
	// Requires a reloadable Models registry (core.LoadModelDir).
	ReloadMidRun bool
	// Clients is the number of concurrent loopback streams; Duration is
	// each client's simulated horizon; client i simulates seed 100+i.
	Clients  int
	Duration time.Duration
	// Factor, when > 1, perturbs each client's pipeline periodically so
	// the streams actually contain anomalies to record.
	Factor float64
	// RejectClients adds this many doomed clients, each naming a model the
	// registry does not hold; the harness asserts every refusal lands in
	// StatsReport.StreamsRejected as an unknown-model rejection.
	RejectClients int
	// Anomalies attaches an anomaly store; the harness then asserts every
	// gate trip was persisted (AnomalyIncidents == GateTrips) with zero
	// store errors. The caller owns and closes the store.
	Anomalies *anomalystore.Store
	// Alerts attaches an alerting pipeline; once every stream has closed
	// the harness drains it and asserts the delivery books balance and,
	// with Anomalies set, that every transition was persisted. The caller
	// owns and closes the pipeline.
	Alerts *alert.Pipeline
	Sinks  recorder.SinkFactory
}

// clientReport is one loopback client's send-side accounting. Model is
// the resolved model name its stream was served by; HeaderV is the frame
// header version it sent (1 or 2); Bytes is the exact size of the events
// it sent in the plain binary codec, header included.
type clientReport struct {
	Stream  string
	Model   string
	HeaderV int
	Events  int64
	Windows int64
	Bytes   int64
}

// selftestReport is the end-to-end result: send-side counts, the admin
// /stats view fetched over real HTTP, the per-stream finals, the final
// /metrics scrape (already validated) with its per-model window rows and
// the mid-run reload.
type selftestReport struct {
	EventsSent     int64
	WindowsSent    int64
	Stats          StatsReport
	PerClient      []clientReport
	Results        []StreamResult
	Metrics        []byte
	MetricsSamples int
	ModelWindows   map[string]int64
	Reload         *core.ReloadReport
	// Alerts is the alerting pipeline's final ledger when one was attached.
	Alerts *alert.Books
}

// selftest starts a server on loopback, fans opts.Clients simulated
// mediasim traces through real TCP sockets, waits for every stream to
// drain, fetches /stats over the admin HTTP endpoint, shuts the server
// down and cross-checks the books: the server must have scored exactly
// the windows the clients sent, every stream must have closed cleanly,
// and every sink must have flushed. Any mismatch fails the test.
func selftest(t testing.TB, opts selftestOptions) *selftestReport {
	t.Helper()
	start := obs.Now()
	srv, err := New(Options{
		Models:    opts.Models,
		Cfg:       opts.Cfg,
		Learned:   opts.Learned,
		Sinks:     opts.Sinks,
		Anomalies: opts.Anomalies,
		Alerts:    opts.Alerts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()
	adminURL := "http://" + srv.AdminAddr().String()

	// Resolve each client's model up front: the client needs the model's
	// windowing config to predict the exact window count the server must
	// score, and the resolved name to assert the per-model /metrics rows.
	clientModel := make([]string, opts.Clients) // requested (may be "")
	clientResolved := make([]string, opts.Clients)
	clientCfg := make([]core.Config, opts.Clients)
	for i := 0; i < opts.Clients; i++ {
		if len(opts.ClientModels) > 0 {
			clientModel[i] = opts.ClientModels[i%len(opts.ClientModels)]
		}
		nm, _, err := srv.models.Resolve(clientModel[i])
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		clientResolved[i], clientCfg[i] = nm.Name, nm.Cfg
	}

	// The reload-under-load choreography: every client sends the first
	// half of its trace, flushes, and parks on the gate; with the whole
	// fleet provably mid-stream the prober POSTs /reload, then opens the
	// gate and the clients send their second halves — so the swap happens
	// with every stream live and in flight.
	var gate chan struct{}
	var reload *core.ReloadReport
	reloadErr := make(chan error, 1)
	if opts.ReloadMidRun {
		gate = make(chan struct{})
		go func() {
			defer close(gate)
			deadline := obs.Now() + (60 * time.Second).Nanoseconds()
			for {
				var stats StatsReport
				if err := getJSON(adminURL+"/stats", &stats); err == nil &&
					stats.Windows > 0 && stats.StreamsLive == opts.Clients {
					break
				}
				if obs.Now() > deadline {
					reloadErr <- fmt.Errorf("reload: server never under load")
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			var rep core.ReloadReport
			if err := postJSON(adminURL+"/reload", &rep); err != nil {
				reloadErr <- fmt.Errorf("POST /reload: %w", err)
				return
			}
			reload = &rep
			reloadErr <- nil
		}()
	} else {
		reloadErr <- nil
	}

	// The doomed clients run first: each must be refused at registration
	// and observe the refusal as the server closing the connection.
	for i := 0; i < opts.RejectClients; i++ {
		if err := runRejectClient(srv.TraceAddr().String(), fmt.Sprintf("selftest-reject-%02d", i)); err != nil {
			t.Fatalf("reject client %d: %v", i, err)
		}
	}

	reports := make([]clientReport, opts.Clients)
	errs := make([]error, opts.Clients)
	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("selftest-%02d", i)
			rep, err := runClient(srv.TraceAddr().String(), name, clientCfg[i], clientModel[i], opts, 100+int64(i), gate)
			rep.Model = clientResolved[i]
			reports[i], errs[i] = rep, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := <-reloadErr; err != nil {
		t.Fatal(err)
	}

	if err := awaitClosedStreams(ctx, adminURL, opts.Clients); err != nil {
		t.Fatal(err)
	}

	var stats StatsReport
	if err := getJSON(adminURL+"/stats", &stats); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	var health healthReport
	if err := getJSON(adminURL+"/healthz", &health); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	if health.Status != "ok" {
		t.Fatalf("health %q", health.Status)
	}
	// Scrape /metrics over real HTTP with every stream folded into the
	// per-model totals: the body must parse as Prometheus text, and the
	// per-model window rows are cross-checked against the send-side books.
	metricsBody, err := getBody(adminURL + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	nSamples, err := ValidatePrometheusText(metricsBody)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}
	modelWindows, err := scrapeModelWindows(metricsBody)
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if err := checkStageMeans(metricsBody, time.Duration(obs.Now()-start)); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	// Every stream has drained and closed, so the e2e histograms are final.
	var e2e obs.Snapshot
	for _, p := range srv.pipelines() {
		e2e.Merge(p.E2E.Snapshot())
	}

	cancel()
	if err := <-serveErr; err != nil {
		t.Fatalf("server: %v", err)
	}

	rep := &selftestReport{
		Stats:          stats,
		PerClient:      reports,
		Results:        srv.Results(),
		Metrics:        metricsBody,
		MetricsSamples: nSamples,
		ModelWindows:   modelWindows,
		Reload:         reload,
	}
	for _, c := range reports {
		rep.EventsSent += c.Events
		rep.WindowsSent += c.Windows
	}

	// Latency books: the e2e histogram observes each event once, at the
	// decision on its window, so its count must equal the events sent.
	if n := e2e.Count(); n != uint64(rep.EventsSent) {
		t.Fatalf("e2e histogram observed %d events, clients sent %d", n, rep.EventsSent)
	}
	// The cross-check: nothing sent may be missing from the books.
	if stats.Windows != rep.WindowsSent {
		t.Fatalf("scored %d windows, clients sent %d", stats.Windows, rep.WindowsSent)
	}
	if stats.StreamsClosed != opts.Clients || stats.StreamsLive != 0 {
		t.Fatalf("streams closed=%d live=%d, want %d/0", stats.StreamsClosed, stats.StreamsLive, opts.Clients)
	}
	byStream := make(map[string]clientReport, len(reports))
	for _, c := range reports {
		byStream[c.Stream] = c
	}
	for _, res := range rep.Results {
		c, ok := byStream[res.ID]
		if !ok {
			t.Fatalf("unexpected stream %q", res.ID)
		}
		if res.Model != c.Model {
			t.Fatalf("stream %q served by model %q, client resolved %q", res.ID, res.Model, c.Model)
		}
		if !res.Clean {
			t.Fatalf("stream %q did not close cleanly: %s", res.ID, res.Err)
		}
		if int64(res.Windows) != c.Windows {
			t.Fatalf("stream %q scored %d windows, client sent %d", res.ID, res.Windows, c.Windows)
		}
		if res.FullBytes != c.Bytes {
			t.Fatalf("stream %q booked %d full-trace bytes, its events encode to %d", res.ID, res.FullBytes, c.Bytes)
		}
	}

	// Per-model books off the /metrics labels: each model's cumulative
	// window row must equal the windows sent by the clients resolved to it.
	wantByModel := make(map[string]int64)
	for _, c := range reports {
		wantByModel[c.Model] += c.Windows
	}
	for model, want := range wantByModel {
		if got, ok := modelWindows[model]; !ok || got != want {
			t.Fatalf("/metrics windows_total{model=%q} = %d (row present: %v), clients sent %d", model, got, ok, want)
		}
	}
	if opts.ReloadMidRun && (reload == nil || reload.Generation < 1) {
		t.Fatal("reload-under-load did not record a successful reload")
	}

	// Rejection books: every doomed client must be on record, as an
	// unknown-model refusal, and nothing else may have been refused.
	if stats.StreamsRejected != int64(opts.RejectClients) ||
		stats.RejectedUnknownModel != int64(opts.RejectClients) {
		t.Fatalf("rejected %d streams (%d unknown-model), want %d",
			stats.StreamsRejected, stats.RejectedUnknownModel, opts.RejectClients)
	}

	// Alert books: every stream has closed (so the state machines are
	// quiet), the dispatch queue must drain, and the delivery ledger must
	// balance.
	if opts.Alerts != nil {
		if !opts.Alerts.Drain(10 * time.Second) {
			t.Fatal("alert queue did not drain")
		}
		b := opts.Alerts.Books()
		rep.Alerts = &b
		if err := b.Balanced(); err != nil {
			t.Fatal(err)
		}
		if stats.AlertsFiring != 0 {
			t.Fatalf("%d streams still firing after close", stats.AlertsFiring)
		}
		if opts.Anomalies != nil {
			if stats.AlertStoreErrors != 0 {
				t.Fatalf("alert store reported %d append errors", stats.AlertStoreErrors)
			}
			if want := b.Fired + b.Resolved; stats.AlertTransitions != want {
				t.Fatalf("persisted %d alert transitions, pipeline emitted %d", stats.AlertTransitions, want)
			}
		}
	}

	// Anomaly store books: every gate trip must have been persisted as an
	// incident and no append may have failed. Alert transitions
	// (window-free records) ride the same store.
	if opts.Anomalies != nil {
		if stats.AnomalyStoreErrors != 0 {
			t.Fatalf("anomaly store reported %d append errors", stats.AnomalyStoreErrors)
		}
		if stats.AnomalyIncidents != stats.GateTrips {
			t.Fatalf("persisted %d incidents, server tripped %d gates", stats.AnomalyIncidents, stats.GateTrips)
		}
		if st := opts.Anomalies.Stats(); st.Appended != stats.AnomalyIncidents+stats.AlertTransitions {
			t.Fatalf("store holds %d appended records, server counted %d incidents + %d alert transitions",
				st.Appended, stats.AnomalyIncidents, stats.AlertTransitions)
		}
	}
	return rep
}

// runRejectClient dials the server, names a model no registry holds, and
// waits for the server to refuse the stream by closing the connection (the
// read unblocks with EOF). The rejection counter is bumped before the
// server closes the socket, so the caller may assert it immediately.
func runRejectClient(addr, name string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriterModel(conn, name, "selftest-no-such-model")
	if err != nil {
		return err
	}
	if err := fw.Flush(); err != nil { // push the header to the server
		return err
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("server did not close the rejected stream (read err %v)", err)
	}
	return nil
}

// runClient streams one simulated pipeline run to the server, counting
// events and (via a local windower identical to the server's) the windows
// the server must end up scoring. model selects the frame-header version:
// "" sends a v1 header (served by the default model), a name sends v2.
// A non-nil gate makes the client flush and park at its trace midpoint
// until the gate closes — the reload-under-load choreography.
func runClient(addr, name string, cfg core.Config, model string, opts selftestOptions, seed int64, gate <-chan struct{}) (clientReport, error) {
	rep := clientReport{Stream: name, HeaderV: 1}
	if model != "" {
		rep.HeaderV = 2
	}
	sim, err := clientSim(opts, seed)
	if err != nil {
		return rep, err
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return rep, err
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriterModel(conn, name, model)
	if err != nil {
		return rep, err
	}

	// Tee: every event goes to the socket, to a size accountant and to a
	// local windower with the exact server-side windowing semantics
	// (window.Stream mirrors Monitor.Run's Cut/Flush loop), so the
	// expected window count and full-trace bytes are computed, not guessed.
	acct := traceio.NewSizeAccountant()
	tee := &teeReader{r: sim, w: fw, acct: acct, events: &rep.Events, gate: gate, pauseAt: opts.Duration / 2}
	err = window.Stream(tee, cfg.NewWindower(), func(wins []window.Window) error {
		rep.Windows += int64(len(wins))
		return nil
	})
	if err != nil {
		return rep, err
	}
	rep.Bytes = acct.Bytes()
	return rep, fw.Close()
}

// clientSim is the simulated pipeline run a selftest client with this
// seed sends.
func clientSim(opts selftestOptions, seed int64) (*mediasim.Sim, error) {
	sc := mediasim.DefaultConfig()
	sc.Duration = opts.Duration
	sc.Seed = seed
	if opts.Factor > 1 {
		load, err := perturb.Periodic(opts.Factor, opts.Duration/4, opts.Duration/2,
			opts.Duration/10, opts.Duration)
		if err != nil {
			return nil, err
		}
		sc.Load = load
	}
	return mediasim.New(sc)
}

// teeReader forwards every event it reads to a trace writer (the wire).
// With a gate set, the first event at or past pauseAt flushes the wire
// and blocks until the gate closes, leaving the stream live and half-sent.
type teeReader struct {
	r       trace.Reader
	w       *traceio.FrameWriter
	acct    *traceio.SizeAccountant
	events  *int64
	gate    <-chan struct{}
	pauseAt time.Duration
	paused  bool
}

func (t *teeReader) ReadBatch(dst []trace.Event) (int, error) {
	n, err := t.r.ReadBatch(dst)
	for _, ev := range dst[:n] {
		if t.gate != nil && !t.paused && ev.TS >= t.pauseAt {
			t.paused = true
			if err := t.w.Flush(); err != nil {
				return 0, err
			}
			<-t.gate
		}
		if err := t.w.Write(ev); err != nil {
			return 0, err
		}
		if err := t.acct.Write(ev); err != nil {
			return 0, err
		}
		*t.events++
	}
	return n, err
}

// awaitClosedStreams polls /stats until every client stream has drained
// and closed, or the context/timeout gives up.
func awaitClosedStreams(ctx context.Context, adminURL string, want int) error {
	deadline := obs.Now() + (60 * time.Second).Nanoseconds()
	for {
		var stats StatsReport
		if err := getJSON(adminURL+"/stats", &stats); err == nil {
			if stats.StreamsClosed >= want && stats.StreamsLive == 0 {
				return nil
			}
		}
		if obs.Now() > deadline {
			return fmt.Errorf("serve: selftest streams did not drain within 60s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON POSTs an empty body and decodes the JSON response.
func postJSON(url string, v any) error {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// getBody fetches a URL's body.
func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrapeModelWindows extracts the enduratrace_windows_total{model="X"}
// samples from a /metrics body.
func scrapeModelWindows(body []byte) (map[string]int64, error) {
	out := make(map[string]int64)
	const prefix = `enduratrace_windows_total{model="`
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"`)
		if end < 0 {
			return nil, fmt.Errorf("malformed metric line %q", line)
		}
		model := rest[:end]
		fields := strings.Fields(rest[end+2:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metric value in %q: %w", line, err)
		}
		out[model] = int64(v)
	}
	return out, nil
}

// checkStageMeans holds every per-stage latency histogram of a scrape to
// the clock its spans must be read on: each has observations, and its mean
// lies above the 1 ns that obs.Histogram.ObserveN clamps a negative span
// to and at most the wall time the run took. A stage that stamps one end
// of a span from the wall clock and the other from obs.Now is off by the
// Unix epoch, so its spans are all clamped or all far too long.
func checkStageMeans(body []byte, elapsed time.Duration) error {
	sums := make(map[string]float64)
	counts := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "enduratrace_pipeline_") {
			continue
		}
		base, labels, _ := strings.Cut(name, "{")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("malformed metric value in %q: %w", line, err)
		}
		switch {
		case strings.HasSuffix(base, "_seconds_sum"):
			sums[strings.TrimSuffix(base, "_sum")+"{"+labels] = v
		case strings.HasSuffix(base, "_seconds_count"):
			counts[strings.TrimSuffix(base, "_count")+"{"+labels] = v
		}
	}
	if len(counts) == 0 {
		return fmt.Errorf("no enduratrace_pipeline_*_seconds histogram in the scrape")
	}
	for series, n := range counts {
		if n == 0 {
			return fmt.Errorf("%s observed nothing", series)
		}
		// The bound sits a rounding error above 1 ns: a sum of n clamped
		// spans, printed in seconds, divides back to 1 ns within an ulp.
		mean := sums[series] / n
		if mean <= 1.000001e-9 || mean > elapsed.Seconds() {
			return fmt.Errorf("%s mean %.3g s is outside (1 ns, %v]: a span read across two clocks?", series, mean, elapsed)
		}
	}
	return nil
}
