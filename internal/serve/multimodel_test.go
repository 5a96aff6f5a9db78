package serve

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/obs"
	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
)

// twoModelDir learns two distinguishable models ("a" is the shared test
// fixture, "b" a smaller-K variant from a different reference seed),
// writes them into a temp dir and loads them as a reloadable registry
// with "a" as the default.
func twoModelDir(t *testing.T) (dir string, reg *core.ModelRegistry) {
	t.Helper()
	cfgA, learnedA := fixture(t)
	cfgB := cfgA
	cfgB.K = 10
	sc := mediasim.DefaultConfig()
	sc.Duration = 20 * time.Second
	sc.Seed = 77
	sim, err := mediasim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	learnedB, err := core.Learn(cfgB, sim)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := core.SaveModelFile(filepath.Join(dir, "a.json"), cfgA, learnedA); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveModelFile(filepath.Join(dir, "b.json"), cfgB, learnedB); err != nil {
		t.Fatal(err)
	}
	reg, err = core.LoadModelDir(dir, "a")
	if err != nil {
		t.Fatal(err)
	}
	return dir, reg
}

// TestMultiModelSelftestReloadUnderLoad is the PR's acceptance scenario:
// two models in the registry, v1-framed clients served by the default,
// v2 clients naming model b scored by model b (asserted via the
// per-model /metrics rows inside selftest), and a POST /reload fired
// while every stream is parked mid-flight — with an anomaly store and a
// rejected client riding along, and the final books still balancing to
// the event: windows, every gate trip persisted, the one refusal counted.
func TestMultiModelSelftestReloadUnderLoad(t *testing.T) {
	_, reg := twoModelDir(t)
	store, err := anomalystore.Open(t.TempDir(), anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rep := selftest(t, selftestOptions{
		Models:        reg,
		ClientModels:  []string{"", "b", "a", "b"},
		ReloadMidRun:  true,
		Clients:       4,
		Duration:      6 * time.Second,
		Factor:        3,
		Anomalies:     store,
		RejectClients: 1,
	})
	// selftest asserted every trip persisted and the one refusal counted;
	// the store check needs trips to mean anything.
	if rep.Stats.GateTrips == 0 {
		t.Fatal("no gate trips across the reload; increase Factor or Duration")
	}
	if rep.Reload == nil || rep.Reload.Generation != 1 {
		t.Fatalf("reload report %+v, want generation 1", rep.Reload)
	}
	if reg.Generation() != 1 {
		t.Fatalf("registry generation %d after selftest, want 1", reg.Generation())
	}
	// Client 0 sent a v1 header and must have been served by the default.
	byStream := map[string]clientReport{}
	var wantB int64
	for _, c := range rep.PerClient {
		byStream[c.Stream] = c
		if c.Model == "b" {
			wantB += c.Windows
		}
	}
	c0 := byStream["selftest-00"]
	if c0.HeaderV != 1 || c0.Model != "a" {
		t.Fatalf("v1 client got header v%d model %q, want v1 on default model a", c0.HeaderV, c0.Model)
	}
	c1 := byStream["selftest-01"]
	if c1.HeaderV != 2 || c1.Model != "b" {
		t.Fatalf("model-b client got header v%d model %q", c1.HeaderV, c1.Model)
	}
	// The per-model metrics row for b must carry exactly the b-clients'
	// windows (selftest already asserted this; re-assert the headline).
	if rep.ModelWindows["b"] != wantB {
		t.Fatalf("metrics model b windows %d, want %d", rep.ModelWindows["b"], wantB)
	}
	if rep.ModelWindows["a"]+rep.ModelWindows["b"] != rep.WindowsSent {
		t.Fatalf("per-model windows %d+%d != %d sent",
			rep.ModelWindows["a"], rep.ModelWindows["b"], rep.WindowsSent)
	}
	// Every stream result carries the model it was scored by.
	seenB := 0
	for _, res := range rep.Results {
		if res.Model == "b" {
			seenB++
		}
	}
	if seenB != 2 {
		t.Fatalf("%d streams served by model b, want 2", seenB)
	}
	if rep.MetricsSamples == 0 {
		t.Fatal("metrics scrape yielded no samples")
	}
}

// TestUnknownModelRejectedCleanly: a v2 client naming a model the
// registry does not hold must be rejected at registration — no stream
// registered, the rejection counted, and the client's connection closed
// (its writes fail) instead of silently swallowing events forever.
func TestUnknownModelRejectedCleanly(t *testing.T) {
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	conn, err := net.Dial("tcp", srv.TraceAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw, err := traceio.NewFrameWriterModel(conn, "lost", "ghost")
	if err != nil {
		t.Fatal(err)
	}
	fw.FrameBytes = 256
	if err := fw.Flush(); err != nil { // push the header to the server
		t.Fatal(err)
	}

	// Wait for the server to observe and reject the registration (TCP
	// buffering means the client cannot see the refusal before it
	// happens), then keep writing: the closed connection must surface as
	// a write error within the deadline rather than swallowing events
	// forever.
	deadline := time.Now().Add(10 * time.Second)
	for srv.rejUnknown.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never rejected the unknown-model stream")
		}
		time.Sleep(time.Millisecond)
	}
	ts := time.Duration(0)
	for {
		if time.Now().After(deadline) {
			t.Fatal("client still writing after 10s against a rejected stream")
		}
		ts += time.Millisecond
		if err := fw.Write(trace.Event{TS: ts, Type: 1}); err != nil {
			break // the clean end: rejection reached the client
		}
		if err := fw.Flush(); err != nil {
			break
		}
	}

	// No stream must have been registered, and the rejection counted.
	stats := srv.Stats()
	if stats.StreamsLive != 0 || stats.StreamsClosed != 0 {
		t.Fatalf("rejected stream registered: %+v", stats)
	}
	if stats.StreamsRejected != 1 || stats.RejectedUnknownModel != 1 {
		t.Fatalf("rejection miscounted: %+v", stats)
	}
	body, err := getBody("http://" + srv.AdminAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `enduratrace_streams_rejected_total{reason="unknown_model"} 1`) {
		t.Fatalf("metrics missing the rejection count:\n%s", body)
	}

	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

// TestStreamRecordsNameRegistrationGeneration: a reload in the middle of a
// stream does not change the model that scores it, so it does not change
// the generation its store records name either. A stream registered at
// generation 0 and tripping only after a reload writes gate-trip and
// alert-transition records that all carry generation 0.
func TestStreamRecordsNameRegistrationGeneration(t *testing.T) {
	_, reg := twoModelDir(t)
	store, err := anomalystore.Open(t.TempDir(), anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	alerts := alert.NewPipeline(alert.Options{MinTrips: 1, ClearAfter: time.Millisecond, QueueLen: 4096})
	defer alerts.Close()
	srv, err := New(Options{Models: reg, Anomalies: store, Alerts: alerts})
	if err != nil {
		t.Fatal(err)
	}
	st := openTest(t, srv, "cam", "")
	if rep, err := srv.Reload(); err != nil || rep.Generation != 1 {
		t.Fatalf("reload: %+v, %v; want generation 1", rep, err)
	}

	evs := simEvents(t, 7, 20*time.Second, 3)
	go func() {
		st.q.PushBatch(evs, obs.Now(), 0)
		st.q.Close()
	}()
	stats, err := srv.score(st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GateTrips == 0 || srv.Stats().AlertTransitions == 0 {
		t.Fatalf("%d gate trips, %d alert transitions: the stream must write both record kinds",
			stats.GateTrips, srv.Stats().AlertTransitions)
	}

	r, err := anomalystore.OpenReader(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var trips, transitions int64
	if _, err := r.Walk(func(inc *anomalystore.Incident) error {
		if inc.Alert != "" {
			transitions++
		} else {
			trips++
		}
		if inc.Stream != st.id || inc.ModelGen != 0 {
			t.Errorf("record %d (alert %q): stream %q generation %d, want %q generation 0",
				inc.Seq, inc.Alert, inc.Stream, inc.ModelGen, st.id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if trips != int64(stats.GateTrips) || transitions != srv.Stats().AlertTransitions {
		t.Fatalf("store holds %d trips and %d transitions, the stream wrote %d and %d",
			trips, transitions, stats.GateTrips, srv.Stats().AlertTransitions)
	}
}

// TestReloadEndpointOnStaticRegistry: POST /reload against a server built
// from a single in-memory model (no directory) must refuse cleanly, not
// crash or pretend to succeed.
func TestReloadEndpointOnStaticRegistry(t *testing.T) {
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Reload(); err == nil {
		t.Fatal("static registry reloaded")
	}
	if srv.models.Generation() != 0 {
		t.Fatal("failed reload bumped the generation")
	}
}

// TestRegisterUnknownModelError pins the sentinel: the serving layer
// depends on errors.Is(err, core.ErrUnknownModel) to count rejections,
// and a refused registration enters nothing in the stream table.
func TestRegisterUnknownModelError(t *testing.T) {
	_, reg := twoModelDir(t)
	srv, err := New(Options{Models: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.register("s", "ghost"); !errors.Is(err, core.ErrUnknownModel) {
		t.Fatalf("error %v, want ErrUnknownModel", err)
	}
	if n := len(srv.Streams()); n != 0 {
		t.Fatalf("%d live streams after a refused registration, want 0", n)
	}
}
