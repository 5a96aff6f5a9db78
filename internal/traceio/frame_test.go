package traceio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/trace"
)

func randomEvents(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]trace.Event, n)
	ts := time.Duration(0)
	for i := range evs {
		ts += time.Duration(rng.Intn(1_000_000))
		var payload []byte
		if rng.Intn(3) == 0 {
			payload = make([]byte, rng.Intn(64))
			rng.Read(payload)
		}
		evs[i] = trace.Event{
			TS:      ts,
			Type:    trace.EventType(rng.Intn(30)),
			Arg:     uint64(rng.Intn(1 << 20)),
			Payload: payload,
		}
	}
	return evs
}

func TestFrameRoundTrip(t *testing.T) {
	evs := randomEvents(500, 7)
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, "cam-03")
	if err != nil {
		t.Fatal(err)
	}
	fw.FrameBytes = 256 // force many frames
	for i, ev := range evs {
		if err := fw.Write(ev); err != nil {
			t.Fatal(err)
		}
		if i == 100 {
			// An explicit mid-stream flush must not corrupt anything.
			if err := fw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	fr, err := NewFrameReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fr.StreamName() != "cam-03" {
		t.Fatalf("stream name %q, want cam-03", fr.StreamName())
	}
	got, err := trace.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i].TS != evs[i].TS || got[i].Type != evs[i].Type ||
			got[i].Arg != evs[i].Arg || !bytes.Equal(got[i].Payload, evs[i].Payload) {
			t.Fatalf("event %d mismatch: got %v want %v", i, got[i], evs[i])
		}
	}
	// After clean EOF, ReadBatch keeps returning io.EOF.
	if _, err := readOne(fr); err != io.EOF {
		t.Fatalf("post-EOF ReadBatch: %v, want io.EOF", err)
	}
}

func TestFrameEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFrameReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fr.StreamName() != "" {
		t.Fatalf("stream name %q, want empty", fr.StreamName())
	}
	if _, err := readOne(fr); err != io.EOF {
		t.Fatalf("ReadBatch on empty stream: %v, want io.EOF", err)
	}
}

func TestFrameTruncationDetected(t *testing.T) {
	evs := randomEvents(50, 3)
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := fw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Flush the frame but never Close: no end-of-stream marker.
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	fr, err := NewFrameReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, lastErr := trace.ReadAll(fr)
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events before truncation, want %d", len(got), len(evs))
	}
	if lastErr == io.EOF || !errors.Is(lastErr, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream error %v, want io.ErrUnexpectedEOF (not clean EOF)", lastErr)
	}
}

// TestFrameHeaderVersionMatrix pins the v1/v2 compatibility contract:
// model-less writers emit version 1 bytes (readable by v1 servers),
// model-naming writers emit version 2, and a v2-aware reader decodes both
// with identical event payloads.
func TestFrameHeaderVersionMatrix(t *testing.T) {
	evs := randomEvents(40, 11)
	cases := []struct {
		name        string
		model       string
		wantVersion int
	}{
		{"v1-no-model", "", 1},
		{"v2-model", "model-b", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			fw, err := NewFrameWriterModel(&buf, "cam", tc.model)
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
			if v := buf.Bytes()[len(frameMagic)]; int(v) != tc.wantVersion {
				t.Fatalf("header version %d, want %d", v, tc.wantVersion)
			}
			fr, err := NewFrameReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if fr.StreamName() != "cam" || fr.ModelName() != tc.model {
				t.Fatalf("header (%q, %q), want (cam, %q)", fr.StreamName(), fr.ModelName(), tc.model)
			}
			got, err := trace.ReadAll(fr)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(evs) {
				t.Fatalf("decoded %d events, want %d", len(got), len(evs))
			}
		})
	}
}

// TestFrameWriterModelEmptyIsV1 asserts the byte-level compatibility
// promise: naming no model produces exactly the version 1 stream the old
// writer produced, so upgraded clients stay readable by old servers.
func TestFrameWriterModelEmptyIsV1(t *testing.T) {
	evs := randomEvents(20, 13)
	encode := func(mk func(w *bytes.Buffer) (*FrameWriter, error)) []byte {
		var buf bytes.Buffer
		fw, err := mk(&buf)
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
		return buf.Bytes()
	}
	v1 := encode(func(w *bytes.Buffer) (*FrameWriter, error) { return NewFrameWriter(w, "s") })
	v2empty := encode(func(w *bytes.Buffer) (*FrameWriter, error) { return NewFrameWriterModel(w, "s", "") })
	if !bytes.Equal(v1, v2empty) {
		t.Fatal("NewFrameWriterModel with empty model is not byte-identical to NewFrameWriter")
	}
}

func TestFrameHeaderRejects(t *testing.T) {
	v2 := func(name, model string) []byte {
		var buf bytes.Buffer
		fw, err := NewFrameWriterModel(&buf, name, model)
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	full := v2("s", "m")
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"magic-only", []byte(frameMagic)},
		{"bad-version", append([]byte(frameMagic), 99)},
		{"cut-name-length", full[:len(frameMagic)+1]},
		{"cut-mid-name", full[:len(frameMagic)+2]},
		{"cut-model-length", full[:len(frameMagic)+3]},
		{"cut-mid-model", full[:len(frameMagic)+4]},
		{"oversized-name", append(append([]byte(frameMagic), 1), 0xFF, 0xFF, 0x7F)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewFrameReader(bytes.NewReader(tc.in)); err == nil {
				t.Fatalf("header %x accepted, want error", tc.in)
			}
		})
	}
	// Writer-side limits.
	if _, err := NewFrameWriterModel(io.Discard, "s", strings.Repeat("m", maxModelName+1)); err == nil {
		t.Fatal("oversized model name accepted by writer")
	}
}

// FuzzFrameReader hammers the header + frame decoder with corrupt and
// truncated inputs: it must never panic, any error-free prefix must
// decode into well-formed events, and batches of one and of seven must
// read the same events, sizes and error.
func FuzzFrameReader(f *testing.F) {
	seed := func(name, model string, n int) []byte {
		var buf bytes.Buffer
		fw, err := NewFrameWriterModel(&buf, name, model)
		if err != nil {
			f.Fatal(err)
		}
		fw.FrameBytes = 64
		for _, ev := range randomEvents(n, int64(n)+1) {
			if err := fw.Write(ev); err != nil {
				f.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed("", "", 0))
	f.Add(seed("cam", "", 30))
	f.Add(seed("cam", "model-b", 30))
	full := seed("s", "m", 10)
	for _, cut := range []int{1, 3, 5, 7, 9, len(full) / 2, len(full) - 1} {
		if cut < len(full) {
			f.Add(full[:cut])
		}
	}
	f.Add([]byte("ETRSxxxx"))
	oneFrame := func(body ...byte) []byte {
		b := append([]byte(frameMagic), frameVersion1, 0)
		return append(binary.AppendUvarint(b, uint64(len(body))), body...)
	}
	// Non-minimal varints (dts 0 in two bytes, type 1 in three), a type
	// past 16 bits, and a timestamp that wraps int64.
	f.Add(oneFrame(0x80, 0x00, 0x81, 0x80, 0x00, 5, 0, 1, 0x80, 0x80, 0x04, 0, 0))
	f.Add(oneFrame(append(binary.AppendUvarint(nil, math.MaxInt64), 1, 1, 0, 1, 1, 1, 0)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFrameReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer fr.Release()
		var (
			evs   []trace.Event
			size  int64
			prev  time.Duration
			first = true
		)
		for i := 0; i < 1<<16; i++ {
			ev, err := readOne(fr)
			if err != nil {
				// Whatever ended the stream must be sticky.
				if _, err2 := readOne(fr); err2 == nil {
					t.Fatal("ReadBatch succeeded after a terminal error")
				}
				// A larger batch decodes in place, but into the same
				// events, the same sizes and the same error.
				br, berr := NewFrameReader(bytes.NewReader(data))
				if berr != nil {
					t.Fatalf("second reader: %v", berr)
				}
				defer br.Release()
				got, gotErr := readAllBatched(br, 7)
				if gotErr == nil || gotErr.Error() != err.Error() {
					t.Fatalf("batches of 7 ended with %v, batches of one with %v", gotErr, err)
				}
				if len(got) != len(evs) {
					t.Fatalf("batches of 7 decoded %d events, batches of one %d", len(got), len(evs))
				}
				for j := range evs {
					if !sameEvent(got[j], evs[j]) {
						t.Fatalf("event %d: batches of 7 %v, batches of one %v", j, got[j], evs[j])
					}
				}
				if br.EventBytes() != size {
					t.Fatalf("batches of 7 counted %d event bytes, batches of one %d", br.EventBytes(), size)
				}
				return
			}
			if ev.TS < 0 {
				t.Fatalf("decoded negative timestamp %v", ev.TS)
			}
			// The reader's byte count is the canonical encoding's, whatever
			// varint lengths the sender used.
			size += int64(EncodedSize(ev, prev, first))
			prev, first = ev.TS, false
			if fr.EventBytes() != size {
				t.Fatalf("after %d events EventBytes is %d, the events encode to %d", len(evs)+1, fr.EventBytes(), size)
			}
			evs = append(evs, ev)
		}
	})
}

// TestReadersRejectTimestampWrap: a delta that carries the timestamp past
// math.MaxInt64 fails the stream in both readers instead of wrapping it
// negative, after the events before it were delivered intact.
func TestReadersRejectTimestampWrap(t *testing.T) {
	events := func(dts ...uint64) []byte {
		var b []byte
		for _, d := range dts {
			b = append(binary.AppendUvarint(b, d), 1, 1, 0)
		}
		return b
	}
	body := events(math.MaxInt64-1, 1, 1)

	plain := append(binary.AppendUvarint([]byte(magic), formatVersion), body...)
	br, err := NewBinaryReader(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	framed := append(binary.AppendUvarint([]byte(frameMagic), frameVersion1), 0)
	framed = append(binary.AppendUvarint(framed, uint64(len(body))), body...)
	fr, err := NewFrameReader(bytes.NewReader(framed))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()

	for _, r := range []struct {
		name string
		r    trace.Reader
		want string
	}{
		{"BinaryReader", br, "traceio: reading dts: timestamp overflows int64"},
		{"FrameReader", fr, "traceio: reading frame event dts: timestamp overflows int64"},
	} {
		for _, ts := range []time.Duration{math.MaxInt64 - 1, math.MaxInt64} {
			ev, err := readOne(r.r)
			if err != nil || ev.TS != ts {
				t.Fatalf("%s: event at %d, %v; want %d", r.name, int64(ev.TS), err, int64(ts))
			}
		}
		if ev, err := readOne(r.r); err == nil || err.Error() != r.want {
			t.Fatalf("%s: third event %v, %v; want error %q", r.name, ev, err, r.want)
		}
	}
}

func TestFrameBadMagic(t *testing.T) {
	if _, err := NewFrameReader(bytes.NewReader([]byte("ETRCxxxx"))); !errors.Is(err, ErrBadFrameMagic) {
		t.Fatalf("error %v, want ErrBadFrameMagic", err)
	}
}

func TestFrameOutOfOrderRejected(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(trace.Event{TS: 100}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(trace.Event{TS: 50}); !errors.Is(err, trace.ErrOutOfOrder) {
		t.Fatalf("error %v, want trace.ErrOutOfOrder", err)
	}
}

func TestFrameDeltaAcrossFrames(t *testing.T) {
	// Timestamp deltas must survive a frame boundary: write two events in
	// two explicitly flushed frames and check the second timestamp.
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(trace.Event{TS: 1000, Type: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(trace.Event{TS: 2500, Type: 2}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFrameReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].TS != 1000 || evs[1].TS != 2500 {
		t.Fatalf("decoded %v, want TS 1000 and 2500", evs)
	}
}

// TestFrameDecodeErrorText pins, per failure class, the error a frame's
// event decoder latches: the text, and io.ErrUnexpectedEOF for every
// class that is a frame ending too early. Each bad event follows one good
// event in the same frame, read in batches of one and of eight, and the
// error must stay latched.
func TestFrameDecodeErrorText(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// dts 300 (2 bytes) · type 5 (1) · arg 70000 (3) · plen 3 (1) · payload (3).
	event := append(uv(300, 5, 70000, 3), 0xa, 0xb, 0xc)
	fieldAt := []string{"dts", "dts", "type", "arg", "arg", "arg", "payload length", "payload", "payload", "payload"}
	overflow := bytes.Repeat([]byte{0xff}, 10) // ten continuation bytes, then the frame ends

	type tc struct {
		name string
		tail []byte // what follows the good event in the frame
		want string
		eof  bool
	}
	var cases []tc
	for cut := 1; cut < len(event); cut++ {
		cases = append(cases, tc{
			name: fmt.Sprintf("torn at byte %d", cut),
			tail: event[:cut],
			want: "traceio: reading frame event " + fieldAt[cut] + ": unexpected EOF",
			eof:  true,
		})
	}
	cases = append(cases,
		tc{name: "payload short by one", tail: append(uv(1, 1, 1, 4), 1, 2, 3),
			want: "traceio: reading frame event payload: unexpected EOF", eof: true},
		tc{name: "dts overflows", tail: overflow,
			want: "traceio: reading frame event dts: binary: varint overflows a 64-bit integer"},
		tc{name: "type overflows", tail: append(uv(1), overflow...),
			want: "traceio: reading frame event type: binary: varint overflows a 64-bit integer"},
		tc{name: "arg overflows", tail: append(uv(1, 1), overflow...),
			want: "traceio: reading frame event arg: binary: varint overflows a 64-bit integer"},
		tc{name: "payload length overflows", tail: append(uv(1, 1, 1), overflow...),
			want: "traceio: reading frame event payload length: binary: varint overflows a 64-bit integer"},
		tc{name: "dts overflows in its tenth byte", tail: append(bytes.Repeat([]byte{0x80}, 9), 2, 1, 1, 0),
			want: "traceio: reading frame event dts: binary: varint overflows a 64-bit integer"},
		tc{name: "dts overflows past its tenth byte", tail: append(bytes.Repeat([]byte{0x80}, 11), 1, 1, 0),
			want: "traceio: reading frame event dts: binary: varint overflows a 64-bit integer"},
		tc{name: "nine continuation bytes end the frame", tail: bytes.Repeat([]byte{0x80}, 9),
			want: "traceio: reading frame event dts: unexpected EOF", eof: true},
		tc{name: "payload over the limit", tail: uv(1, 1, 1, maxPayloadSize+1),
			want: fmt.Sprintf("traceio: payload length %d exceeds limit", maxPayloadSize+1)},
		tc{name: "timestamp wraps int64", tail: uv(math.MaxInt64-299, 1, 1, 0),
			want: "traceio: reading frame event dts: timestamp overflows int64"},
	)

	for _, c := range cases {
		frame := append(append([]byte{}, event...), c.tail...)
		stream := append([]byte(frameMagic), uv(frameVersion1, 0, uint64(len(frame)))...)
		stream = append(stream, frame...)
		check := func(how string, n int, err error) {
			t.Helper()
			if n != 1 {
				t.Fatalf("%s, %s: %d events before the failure, want 1", c.name, how, n)
			}
			if err == nil || err.Error() != c.want {
				t.Fatalf("%s, %s: error %q, want %q", c.name, how, err, c.want)
			}
			if errors.Is(err, io.ErrUnexpectedEOF) != c.eof {
				t.Fatalf("%s, %s: errors.Is(err, io.ErrUnexpectedEOF) = %v, want %v", c.name, how, !c.eof, c.eof)
			}
		}

		fr, err := NewFrameReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		evs, err := readAllBatched(fr, 1)
		check("batch of 1", len(evs), err)
		_, again := readOne(fr)
		check("batch of 1 again", len(evs), again)
		fr.Release()

		if fr, err = NewFrameReader(bytes.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
		evs, err = readAllBatched(fr, 8)
		check("ReadBatch", len(evs), err)
		_, again = fr.ReadBatch(make([]trace.Event, 8))
		check("ReadBatch again", len(evs), again)
		fr.Release()
	}
}
