package recorder

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

func testWindow(start time.Duration, n int) window.Window {
	w := window.Window{Start: start, End: start + 40*time.Millisecond}
	for i := 0; i < n; i++ {
		w.Events = append(w.Events, trace.Event{
			TS:   start + time.Duration(i)*time.Millisecond,
			Type: trace.EventType(i % 5),
			Arg:  uint64(i),
		})
	}
	return w
}

func TestSanitizeStreamID(t *testing.T) {
	cases := map[string]string{
		"cam-03":        "cam-03",
		"a/b\\c":        "a_b_c",
		"..":            "",
		"":              "",
		"weird name\n!": "weird_name__",
		"ok.trace":      "ok.trace",
	}
	for in, want := range cases {
		if want == "" {
			want = "stream"
		}
		if got := SanitizeStreamID(in); got != want {
			t.Errorf("SanitizeStreamID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDirFactoryPerStreamFiles(t *testing.T) {
	dir := t.TempDir()
	factory, err := NewDirFactory(filepath.Join(dir, "rec"), -1)
	if err != nil {
		t.Fatal(err)
	}

	// Two distinct streams plus one filename collision.
	ids := []string{"cam-a", "cam-b", "cam-a"}
	var sinks []Sink
	for _, id := range ids {
		s, err := factory(id)
		if err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, s)
	}
	for i, s := range sinks {
		if err := s.Record(testWindow(time.Duration(i)*time.Second, 10+i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	entries, err := os.ReadDir(filepath.Join(dir, "rec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("recorded %d files, want 3 (one per stream)", len(entries))
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name()] = true
	}
	for _, want := range []string{"cam-a.etrc", "cam-b.etrc"} {
		if !names[want] {
			t.Fatalf("missing %s among %v", want, names)
		}
	}

	// Each file must be a decodable binary trace with the recorded events.
	f, err := os.Open(filepath.Join(dir, "rec", "cam-b.etrc"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br, err := traceio.NewBinaryReader(f)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 11 {
		t.Fatalf("cam-b recorded %d events, want 11", len(evs))
	}
}

func TestFileSinkFlushOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.etrc.fz")
	s, err := NewFileSink(path, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Record(testWindow(0, 200)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != s.BytesWritten() {
		t.Fatalf("on-disk size %d != reported %d (sink not flushed?)", fi.Size(), s.BytesWritten())
	}
	if s.WindowsRecorded() != 1 {
		t.Fatalf("windows recorded %d, want 1", s.WindowsRecorded())
	}
}

// TestBadCompressLevelCreatesNothing: a level flate refuses fails before
// the sink's file, or the factory's directory, exists.
func TestBadCompressLevelCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	path, sub := filepath.Join(dir, "s.etrc.fz"), filepath.Join(dir, "rec")
	if _, err := NewFileSink(path, 42); err == nil {
		t.Fatal("NewFileSink accepted level 42")
	}
	if _, err := NewDirFactory(sub, 10); err == nil {
		t.Fatal("NewDirFactory accepted level 10")
	}
	for _, p := range []string{path, sub} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s exists after a refused level: %v", p, err)
		}
	}
}

func TestNullFactory(t *testing.T) {
	s, err := NullFactory()("whatever")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Record(testWindow(0, 5)); err != nil {
		t.Fatal(err)
	}
	if s.WindowsRecorded() != 1 || s.BytesWritten() <= 0 {
		t.Fatalf("null sink accounting: %d windows, %d bytes", s.WindowsRecorded(), s.BytesWritten())
	}
}
