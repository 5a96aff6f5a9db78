package trace

import (
	"io"
	"testing"
	"time"
)

func evs(tss ...time.Duration) []Event {
	out := make([]Event, len(tss))
	for i, ts := range tss {
		out[i] = Event{TS: ts, Type: EventType(i)}
	}
	return out
}

func TestSliceReaderAndReadAll(t *testing.T) {
	in := evs(1, 2, 3)
	r := NewSliceReader(in)
	got, err := ReadAll(r)
	if err != nil || len(got) != 3 {
		t.Fatalf("ReadAll: %v, %d events", err, len(got))
	}
	if n, err := r.ReadBatch(make([]Event, 4)); n != 0 || err != io.EOF {
		t.Fatalf("exhausted reader returned %d events, %v; want 0, EOF", n, err)
	}
}

// collector is a Writer that appends every event to a slice.
type collector []Event

func (c *collector) Write(ev Event) error {
	*c = append(*c, ev)
	return nil
}

func TestCopy(t *testing.T) {
	in := evs(1, 2, 3, 4)
	var c collector
	n, err := Copy(&c, NewSliceReader(in))
	if err != nil || n != 4 || len(c) != 4 {
		t.Fatalf("Copy: n=%d err=%v collected=%d", n, err, len(c))
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if reg.NumTypes() != 0 {
		t.Fatalf("empty registry NumTypes = %d", reg.NumTypes())
	}
	reg.Register(0, "vsync")
	reg.Register(5, "decode")
	if reg.NumTypes() != 6 {
		t.Fatalf("NumTypes = %d, want 6", reg.NumTypes())
	}
	if reg.Name(5) != "decode" || reg.Name(3) != "type3" {
		t.Fatalf("names wrong: %q %q", reg.Name(5), reg.Name(3))
	}
	ts := reg.Types()
	if len(ts) != 2 || ts[0] != 0 || ts[1] != 5 {
		t.Fatalf("Types() = %v", ts)
	}
	// Re-registering the same name is fine; a different name panics.
	reg.Register(0, "vsync")
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting Register did not panic")
		}
	}()
	reg.Register(0, "other")
}
