package recorder

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"enduratrace/internal/trace"
	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// mkWindows builds n windows of 10 events each with compressible payloads.
func mkWindows(n int) []window.Window {
	rng := rand.New(rand.NewSource(1))
	var out []window.Window
	ts := time.Duration(0)
	for i := 0; i < n; i++ {
		w := window.Window{Index: i, Start: ts}
		for j := 0; j < 10; j++ {
			ts += time.Millisecond
			w.Events = append(w.Events, trace.Event{
				TS:      ts,
				Type:    trace.EventType(rng.Intn(4)),
				Arg:     uint64(j),
				Payload: bytes.Repeat([]byte{byte(i)}, 32),
			})
		}
		w.End = ts
		out = append(out, w)
	}
	return out
}

// memSink retains every recorded window and accounts its encoded size
// through its own accountant.
type memSink struct {
	Windows []window.Window
	acct    *traceio.SizeAccountant
}

func newMemSink() *memSink { return &memSink{acct: traceio.NewSizeAccountant()} }

func (s *memSink) Record(w window.Window) error {
	s.Windows = append(s.Windows, w)
	for _, ev := range w.Events {
		if err := s.acct.Write(ev); err != nil {
			return err
		}
	}
	return nil
}

func (s *memSink) Close() error         { return nil }
func (s *memSink) BytesWritten() int64  { return s.acct.Bytes() }
func (s *memSink) WindowsRecorded() int { return len(s.Windows) }

func TestNullAndMemSinksAgreeOnBytes(t *testing.T) {
	ws := mkWindows(5)
	null := NewNullSink()
	mem := newMemSink()
	for _, w := range ws {
		if err := null.Record(w); err != nil {
			t.Fatal(err)
		}
		if err := mem.Record(w); err != nil {
			t.Fatal(err)
		}
	}
	if null.BytesWritten() != mem.BytesWritten() {
		t.Fatalf("null %d bytes, mem %d bytes", null.BytesWritten(), mem.BytesWritten())
	}
	if null.WindowsRecorded() != 5 || mem.WindowsRecorded() != 5 {
		t.Fatalf("window counts %d/%d, want 5/5", null.WindowsRecorded(), mem.WindowsRecorded())
	}
	if len(mem.Windows) != 5 {
		t.Fatalf("mem retained %d windows", len(mem.Windows))
	}
}

func TestStreamSinkRoundTrip(t *testing.T) {
	ws := mkWindows(4)
	var buf bytes.Buffer
	s, err := NewStreamSink(&buf, -1)
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Event
	for _, w := range ws {
		if err := s.Record(w); err != nil {
			t.Fatal(err)
		}
		want = append(want, w.Events...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d != buffer %d", s.BytesWritten(), buf.Len())
	}
	br, err := traceio.NewBinaryReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].TS != want[i].TS || got[i].Type != want[i].Type {
			t.Fatalf("event %d mismatch: %v vs %v", i, got[i], want[i])
		}
	}
	if err := s.Record(ws[0]); err == nil {
		t.Fatal("Record after Close succeeded")
	}
}

func TestStreamSinkCompressionShrinks(t *testing.T) {
	ws := mkWindows(20)
	var plain, packed bytes.Buffer
	sp, _ := NewStreamSink(&plain, -1)
	sc, _ := NewStreamSink(&packed, 6)
	for _, w := range ws {
		sp.Record(w)
		sc.Record(w)
	}
	sp.Close()
	sc.Close()
	if sc.BytesWritten() >= sp.BytesWritten() {
		t.Fatalf("compressed %d >= plain %d", sc.BytesWritten(), sp.BytesWritten())
	}
}

func TestContextSinkPrePost(t *testing.T) {
	ws := mkWindows(10)
	mem := newMemSink()
	ctx := NewContextSink(mem, 2, 2)
	flagged := map[int]bool{5: true}
	for _, w := range ws {
		if err := ctx.Observe(w); err != nil {
			t.Fatal(err)
		}
		if flagged[w.Index] {
			if err := ctx.Record(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := []int{3, 4, 5, 6, 7}
	if len(mem.Windows) != len(want) {
		t.Fatalf("recorded %d windows, want %v", len(mem.Windows), want)
	}
	for i, w := range mem.Windows {
		if w.Index != want[i] {
			t.Fatalf("recorded indexes %v, want %v", indexes(mem.Windows), want)
		}
	}
}

func TestContextSinkNoDuplicatesOnAdjacentAnomalies(t *testing.T) {
	ws := mkWindows(10)
	mem := newMemSink()
	ctx := NewContextSink(mem, 2, 2)
	flagged := map[int]bool{4: true, 5: true}
	for _, w := range ws {
		if err := ctx.Observe(w); err != nil {
			t.Fatal(err)
		}
		if flagged[w.Index] {
			if err := ctx.Record(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := []int{2, 3, 4, 5, 6, 7}
	got := indexes(mem.Windows)
	if len(got) != len(want) {
		t.Fatalf("recorded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recorded %v, want %v", got, want)
		}
	}
}

func indexes(ws []window.Window) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = w.Index
	}
	return out
}
