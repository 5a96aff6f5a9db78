package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"enduratrace/internal/core"
	"enduratrace/internal/mediasim"
	"enduratrace/internal/recorder"
	"enduratrace/internal/traceio"
)

// fixtureServer builds a server on the shared single-model fixture.
func fixtureServer(t *testing.T) *Server {
	t.Helper()
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// openTest enters a stream in the table the way open does, minus the
// socket: registered under name on model, with a null sink.
func openTest(t *testing.T, srv *Server, name, model string) *stream {
	t.Helper()
	st, err := srv.register(name, model)
	if err != nil {
		t.Fatal(err)
	}
	st.sink = recorder.NewNullSink()
	return st
}

// TestRegisterNamesStreams: a taken name gets a suffix, an empty name a
// sequential id, every stream is pinned to the model it resolved, and a
// closed stream leaves the table for the books.
func TestRegisterNamesStreams(t *testing.T) {
	srv := fixtureServer(t)
	a := openTest(t, srv, "cam", "")
	b := openTest(t, srv, "cam", "") // name collision gets a suffix
	c := openTest(t, srv, "", "")    // empty name gets a sequential id
	if a.model.Name != "default" {
		t.Fatalf("stream pinned to %q, want the default model", a.model.Name)
	}
	if a.id != "cam" || b.id == "cam" || c.id == "" {
		t.Fatalf("ids: %q %q %q", a.id, b.id, c.id)
	}

	a.draining.Store(true)
	views := srv.Streams()
	if len(views) != 3 {
		t.Fatalf("live streams %d, want 3", len(views))
	}
	for _, v := range views {
		want := "active"
		if v.ID == a.id {
			want = "draining"
		}
		if v.State != want {
			t.Fatalf("stream %s state %q, want %q", v.ID, v.State, want)
		}
	}

	for _, st := range []*stream{a, b, c} {
		srv.close(st, core.RunStats{}, nil, nil)
	}
	if n := len(srv.Streams()); n != 0 {
		t.Fatalf("live streams %d after closing all, want 0", n)
	}
	if st := srv.Stats(); st.StreamsLive != 0 || st.StreamsClosed != 3 {
		t.Fatalf("live=%d closed=%d, want 0/3", st.StreamsLive, st.StreamsClosed)
	}
}

// TestRegisterAutoIDDodgesClientName: a client that claimed the id the
// next auto-named stream would get keeps it; the auto id moves aside
// instead of overwriting the live entry.
func TestRegisterAutoIDDodgesClientName(t *testing.T) {
	srv := fixtureServer(t)
	squatter := openTest(t, srv, "stream-0002", "")
	auto := openTest(t, srv, "", "")
	if auto.id == squatter.id {
		t.Fatalf("auto id %q collided with a live client-chosen name", auto.id)
	}
	if n := len(srv.Streams()); n != 2 {
		t.Fatalf("live streams %d, want 2 (one was overwritten)", n)
	}
	srv.close(squatter, core.RunStats{}, nil, nil)
	srv.close(auto, core.RunStats{}, nil, nil)
	if st := srv.Stats(); st.StreamsLive != 0 || st.StreamsClosed != 2 {
		t.Fatalf("live=%d closed=%d, want 0/2", st.StreamsLive, st.StreamsClosed)
	}
}

// TestBooksFoldOnceLiveToClosed: a stream's counters are in its model's
// books while it is live and, once closed, exactly once as a closed
// stream — not twice, not lost.
func TestBooksFoldOnceLiveToClosed(t *testing.T) {
	_, reg := twoModelDir(t)
	srv, err := New(Options{Models: reg})
	if err != nil {
		t.Fatal(err)
	}
	sa := openTest(t, srv, "s1", "")
	sb := openTest(t, srv, "s2", "b")
	run := func(st *stream, seed int64) core.RunStats {
		sc := mediasim.DefaultConfig()
		sc.Duration = 8 * time.Second
		sc.Seed = seed
		sim, err := mediasim.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := st.mon.Run(sim, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	ra, rb := run(sa, 31), run(sb, 32)

	_, by := srv.snapshot()
	if by["a"].Windows != int64(ra.Windows) || by["b"].Windows != int64(rb.Windows) {
		t.Fatalf("per-model windows a=%d b=%d, want %d/%d",
			by["a"].Windows, by["b"].Windows, ra.Windows, rb.Windows)
	}
	if by["a"].live != 1 || by["a"].closed != 0 {
		t.Fatalf("model a books %+v, want 1 live 0 closed", by["a"])
	}

	srv.close(sa, ra, nil, nil)
	_, by = srv.snapshot()
	if by["a"].live != 0 || by["a"].closed != 1 {
		t.Fatalf("model a books after close %+v, want 0 live 1 closed", by["a"])
	}
	if by["a"].Windows != int64(ra.Windows) {
		t.Fatalf("model a windows %d after close, want %d (folded exactly once)", by["a"].Windows, ra.Windows)
	}
	srv.close(sb, rb, nil, nil)

	st := srv.Stats()
	if st.StreamsLive != 0 || st.StreamsClosed != 2 || st.Windows != int64(ra.Windows+rb.Windows) {
		t.Fatalf("stats %d windows live=%d closed=%d, want %d/0/2",
			st.Windows, st.StreamsLive, st.StreamsClosed, ra.Windows+rb.Windows)
	}
}

// TestStreamsJSONKeyOrder pins a /streams row's keys and their order,
// which clients parse.
func TestStreamsJSONKeyOrder(t *testing.T) {
	srv := fixtureServer(t)
	openTest(t, srv, "cam", "")
	raw, err := json.Marshal(srv.Streams())
	if err != nil {
		t.Fatal(err)
	}
	var rows []json.RawMessage
	if err := json.Unmarshal(raw, &rows); err != nil || len(rows) != 1 {
		t.Fatalf("/streams body %s (%v), want one row", raw, err)
	}
	dec := json.NewDecoder(bytes.NewReader(rows[0]))
	if _, err := dec.Token(); err != nil { // the row's opening brace
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"id", "model", "state", "since", "counters", "queue_depth",
		"events_ingested", "events_scored", "dropped_events", "full_bytes",
		"recorded_bytes", "recorded_windows", "last_ingest_age_s",
		"last_progress_age_s", "stalled"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("/streams row keys\n %v\nwant\n %v", keys, want)
	}
}

// TestResultsKeepNewest: Results keeps the newest 1 024 closed streams in
// close order, while Stats still counts every stream served.
func TestResultsKeepNewest(t *testing.T) {
	const keep, n = 1024, 1030
	cfg, learned := fixture(t)
	srv, err := New(Options{Cfg: cfg, Learned: learned, QueueLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx) }()

	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", srv.TraceAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		fw, err := traceio.NewFrameWriter(conn, fmt.Sprintf("s-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil { // the header, then the end-of-stream marker
			t.Fatal(err)
		}
		// The server closes the connection once the stream's result is
		// booked, so streams close in dial order.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
			t.Fatalf("stream %d: the server did not close the connection (read err %v)", i, err)
		}
		conn.Close()
	}
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}

	res := srv.Results()
	if len(res) != keep {
		t.Fatalf("%d results, want the newest %d", len(res), keep)
	}
	for i, r := range res {
		if want := fmt.Sprintf("s-%04d", n-keep+i); r.ID != want {
			t.Fatalf("result %d is %s, want %s", i, r.ID, want)
		}
	}
	if st := srv.Stats(); st.StreamsClosed != n {
		t.Fatalf("%d streams closed, want %d", st.StreamsClosed, n)
	}
}
