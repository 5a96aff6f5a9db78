package traceio

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"enduratrace/internal/trace"
)

// encodeFramed encodes evs into a framed stream with small frames (many
// frame boundaries) and, unless torn, the clean end-of-stream marker.
func encodeFramed(t *testing.T, evs []trace.Event, model string, frameBytes int, torn bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := NewFrameWriterModel(&buf, "s", model)
	if err != nil {
		t.Fatal(err)
	}
	fw.FrameBytes = frameBytes
	for _, ev := range evs {
		if err := fw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if torn {
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	} else if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAllBatched drains r through ReadBatch with the given batch size,
// returning the events and the terminal error.
func readAllBatched(r trace.Reader, batch int) ([]trace.Event, error) {
	var out []trace.Event
	dst := make([]trace.Event, batch)
	for {
		n, err := r.ReadBatch(dst)
		out = append(out, dst[:n]...)
		if err != nil {
			return out, err
		}
	}
}

// readOne is a ReadBatch of one.
func readOne(r trace.Reader) (trace.Event, error) {
	var one [1]trace.Event
	_, err := r.ReadBatch(one[:])
	return one[0], err
}

// TestReadBatchTornMidFrame: a stream cut in the middle of a frame must
// yield every event of the complete frames, then io.ErrUnexpectedEOF —
// in batches of 16 just as in batches of one.
func TestReadBatchTornMidFrame(t *testing.T) {
	evs := randomEvents(200, 22)
	data := encodeFramed(t, evs, "", 256, false)
	cut := data[:len(data)-37] // chop inside the last frames

	frOne, err := NewFrameReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	want, errOne := readAllBatched(frOne, 1)
	fr, err := NewFrameReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := readAllBatched(fr, 16)
	if len(got) != len(want) {
		t.Fatalf("batched decode of torn stream: %d events, batches of one got %d", len(got), len(want))
	}
	if !errors.Is(gotErr, io.ErrUnexpectedEOF) || !errors.Is(errOne, io.ErrUnexpectedEOF) {
		t.Fatalf("torn stream errors: batch %v, one %v, want io.ErrUnexpectedEOF", gotErr, errOne)
	}
}

// TestReadBatchDoesNotBlockOnPartialStream: once one event is decoded,
// ReadBatch must return rather than block waiting for frames a slow
// sender has not written yet.
func TestReadBatchDoesNotBlockOnPartialStream(t *testing.T) {
	evs := randomEvents(40, 23)
	pr, pw := io.Pipe()
	defer pr.Close()

	var first bytes.Buffer
	fw, err := NewFrameWriter(&first, "s")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs[:25] {
		if err := fw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	go pw.Write(first.Bytes()) // header + one frame; stream stays open

	fr, err := NewFrameReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]trace.Event, 100)
	n, err := fr.ReadBatch(dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("ReadBatch on the available frame returned %d events, want 25", n)
	}

	// The rest of the stream arrives; the next batch picks it up.
	go func() {
		// The delta clock continues across frames, so keep encoding through
		// fw, retargeted at a fresh buffer.
		var rest bytes.Buffer
		fw.w.Reset(&rest)
		for _, ev := range evs[25:] {
			fw.Write(ev)
		}
		fw.Close()
		pw.Write(rest.Bytes())
		pw.Close()
	}()
	got, gotErr := readAllBatched(fr, 100)
	if gotErr != io.EOF {
		t.Fatalf("tail decode error %v, want io.EOF", gotErr)
	}
	if len(got) != 15 {
		t.Fatalf("tail decode returned %d events, want 15", len(got))
	}
}

// TestFrameReaderPoolReuse: Release/NewFrameReader cycles must hand back
// correct, fully reset readers, and payloads returned before a Release
// must stay intact afterwards (they never alias pooled buffers).
func TestFrameReaderPoolReuse(t *testing.T) {
	evs := randomEvents(100, 24)
	data := encodeFramed(t, evs, "m1", 512, false)
	var keep []trace.Event
	for round := 0; round < 5; round++ {
		fr, err := NewFrameReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if fr.StreamName() != "s" || fr.ModelName() != "m1" {
			t.Fatalf("round %d: header %q/%q, want s/m1", round, fr.StreamName(), fr.ModelName())
		}
		got, gotErr := readAllBatched(fr, 33)
		if gotErr != io.EOF || len(got) != len(evs) {
			t.Fatalf("round %d: %d events err %v", round, len(got), gotErr)
		}
		if round == 0 {
			keep = got
		}
		fr.Release()
	}
	// Payloads from round 0 survived four pooled reuses of the reader.
	for i, ev := range keep {
		if !bytes.Equal(ev.Payload, evs[i].Payload) {
			t.Fatalf("payload %d clobbered by pooled reuse", i)
		}
	}
}

// TestReadBatchZeroAllocSteadyState is the ingest-path allocation gate:
// batched decode of payload-free events must not allocate at all once
// the reader is warm.
func TestReadBatchZeroAllocSteadyState(t *testing.T) {
	const perBatch, runs = 256, 30
	evs := make([]trace.Event, perBatch*(runs+4))
	ts := time.Duration(0)
	for i := range evs {
		ts += time.Millisecond
		evs[i] = trace.Event{TS: ts, Type: trace.EventType(i % 25), Arg: uint64(i)}
	}
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, "s")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := fw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFrameReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]trace.Event, perBatch)
	if _, err := fr.ReadBatch(dst); err != nil { // warm the frame buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := fr.ReadBatch(dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state ReadBatch allocates %v/op, want 0", allocs)
	}
}

// TestFrameReaderWait: Wait returns once the next frame has begun to
// arrive, not before, and a stream that ends while it waits reports the
// same error through ReadBatch as a reader that never waited.
func TestFrameReaderWait(t *testing.T) {
	evs := randomEvents(10, 25)
	data := encodeFramed(t, evs, "", 1<<20, true) // header, one frame, no end marker
	header := len(frameMagic) + 3                 // magic, version, name length, name "s"
	pr, pw := io.Pipe()
	go pw.Write(data[:header])
	fr, err := NewFrameReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()

	waited := make(chan struct{})
	go func() {
		fr.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned before any frame byte arrived")
	case <-time.After(50 * time.Millisecond):
	}
	go func() {
		pw.Write(data[header : header+1]) // the frame's first byte
		time.Sleep(10 * time.Millisecond)
		pw.Write(data[header+1:])
	}()
	<-waited
	// The rest of the frame is still in flight: ReadBatch waits for it.
	dst := make([]trace.Event, 2*len(evs))
	if n, err := fr.ReadBatch(dst); n != len(evs) || err != nil {
		t.Fatalf("ReadBatch after Wait: %d events, %v; want %d", n, err, len(evs))
	}
	pw.Close()
	fr.Wait() // the stream ends while waiting
	want := "traceio: stream truncated mid-frame: unexpected EOF"
	if _, err := fr.ReadBatch(dst); err == nil || err.Error() != want {
		t.Fatalf("ReadBatch after the stream ended in Wait: %v, want %q", err, want)
	}
}
