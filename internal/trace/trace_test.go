package trace

import (
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
	if _, err := r.Next(); err == nil {
		t.Fatal("exhausted reader returned an event")
	}
	r.Reset()
	if ev, err := r.Next(); err != nil || ev.TS != 1 {
		t.Fatalf("Reset did not rewind: %v %v", ev, err)
	}
}

func TestCopyAndCollector(t *testing.T) {
	in := evs(1, 2, 3, 4)
	var c Collector
	n, err := Copy(&c, NewSliceReader(in))
	if err != nil || n != 4 || len(c.Events) != 4 {
		t.Fatalf("Copy: n=%d err=%v collected=%d", n, err, len(c.Events))
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
	if typ, ok := reg.Lookup("decode"); !ok || typ != 5 {
		t.Fatalf("Lookup(decode) = %d, %v", typ, ok)
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
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

func TestWriterFunc(t *testing.T) {
	var n int
	w := WriterFunc(func(Event) error { n++; return nil })
	if _, err := Copy(w, NewSliceReader(evs(1, 2))); err != nil || n != 2 {
		t.Fatalf("WriterFunc saw %d events, err %v", n, err)
	}
}
