package traceio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"
	"time"

	"enduratrace/internal/trace"
)

// randomStream generates n events with non-decreasing timestamps, mixing
// zero deltas, empty payloads and payloads of various sizes.
func randomStream(rng *rand.Rand, n int) []trace.Event {
	evs := make([]trace.Event, n)
	ts := time.Duration(0)
	for i := range evs {
		switch rng.Intn(4) {
		case 0: // zero delta: same timestamp as the previous event
		default:
			ts += time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		}
		var payload []byte
		switch rng.Intn(3) {
		case 0:
		case 1:
			payload = []byte{}
		default:
			payload = make([]byte, 1+rng.Intn(64))
			rng.Read(payload)
		}
		evs[i] = trace.Event{
			TS:      ts,
			Type:    trace.EventType(rng.Intn(40)),
			Arg:     uint64(rng.Int63()),
			Payload: payload,
		}
	}
	return evs
}

func sameEvent(a, b trace.Event) bool {
	return a.TS == b.TS && a.Type == b.Type && a.Arg == b.Arg && bytes.Equal(a.Payload, b.Payload)
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 500} {
		evs := randomStream(rng, n)
		var buf bytes.Buffer
		bw, err := NewBinaryWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := bw.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := bw.BytesWritten(); got != int64(buf.Len()) {
			t.Fatalf("n=%d: BytesWritten %d != buffer %d", n, got, buf.Len())
		}
		br, err := NewBinaryReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(br)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(evs) {
			t.Fatalf("n=%d: decoded %d events", n, len(got))
		}
		for i := range evs {
			if !sameEvent(evs[i], got[i]) {
				t.Fatalf("n=%d event %d: %v != %v", n, i, got[i], evs[i])
			}
		}
	}
}

func TestSizeAccountantMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	evs := randomStream(rng, 300)
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	acct := NewSizeAccountant()
	for _, ev := range evs {
		if err := bw.Write(ev); err != nil {
			t.Fatal(err)
		}
		if err := acct.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if acct.Bytes() != int64(buf.Len()) || acct.Bytes() != bw.BytesWritten() {
		t.Fatalf("accountant %d, writer %d, buffer %d: want all equal",
			acct.Bytes(), bw.BytesWritten(), buf.Len())
	}

	// The readers price what they decode as the accountant does.
	br, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var framed bytes.Buffer
	fw, err := NewFrameWriter(&framed, "s")
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
	fr, err := NewFrameReader(bytes.NewReader(framed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Release()
	for name, r := range map[string]interface {
		trace.Reader
		EventBytes() int64
	}{"BinaryReader": br, "FrameReader": fr} {
		if got, err := readAllBatched(r, 7); err != io.EOF || len(got) != len(evs) {
			t.Fatalf("%s: read %d of %d events, then %v", name, len(got), len(evs), err)
		}
		if got := int64(HeaderSize()) + r.EventBytes(); got != acct.Bytes() {
			t.Fatalf("%s: header + EventBytes = %d, accountant %d", name, got, acct.Bytes())
		}
	}
}

func TestCorruptMagicRejected(t *testing.T) {
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	bw.Write(trace.Event{TS: time.Millisecond, Type: 1})
	bw.Flush()
	raw := buf.Bytes()
	raw[0] = 'X'
	if _, err := NewBinaryReader(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	// Hand-assemble a stream whose event declares a payload beyond the
	// decoder's sanity bound.
	var buf bytes.Buffer
	buf.WriteString(magic)
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	put(formatVersion)
	put(100)                // dts
	put(3)                  // type
	put(7)                  // arg
	put(maxPayloadSize + 1) // payload length over the limit
	br, err := NewBinaryReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(br); err == nil || err == io.EOF {
		t.Fatalf("oversized payload accepted, err = %v", err)
	}
}

func TestTruncatedStreamIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	bw.Write(trace.Event{TS: time.Millisecond, Type: 1, Arg: 2, Payload: []byte("abcdef")})
	bw.Flush()
	raw := buf.Bytes()
	br, err := NewBinaryReader(bytes.NewReader(raw[:len(raw)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(br); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestBinaryHeaderErrors pins the error of each way a file header can
// fail, read whole, byte by byte and by DecodeBinary: among them a
// version of ten continuation bytes that end the input, which overflows
// rather than ends early.
func TestBinaryHeaderErrors(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", "traceio: reading header: EOF"},
		{"ET", "traceio: reading header: unexpected EOF"},
		{"ETRX\x01", ErrBadMagic.Error()},
		{"ETRC", "traceio: reading version: EOF"},
		{"ETRC\x80", "traceio: reading version: unexpected EOF"},
		{"ETRC\x92\x9d\x9d\x9d\x9d\x9d\x9d\x9d\x9d\xfc", "traceio: reading version: binary: varint overflows a 64-bit integer"},
		{"ETRC\x02", "traceio: unsupported format version 2"},
	} {
		_, whole := NewBinaryReader(bytes.NewReader([]byte(c.in)))
		_, bytewise := NewBinaryReader(iotest.OneByteReader(bytes.NewReader([]byte(c.in))))
		_, blob := DecodeBinary([]byte(c.in))
		for _, err := range []error{whole, bytewise, blob} {
			if err == nil || err.Error() != c.want {
				t.Fatalf("header %q: %v, want %q", c.in, err, c.want)
			}
		}
	}
}

// TestBinaryReaderLivePipe: on a live pipe a batch hands over the events
// that have arrived instead of waiting to fill dst, and an event torn
// across two writes is decoded once its rest arrives.
func TestBinaryReaderLivePipe(t *testing.T) {
	evs := randomStream(rand.New(rand.NewSource(9)), 4)
	whole, err := AppendBinary(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	three, err := AppendBinary(nil, evs[:3])
	if err != nil {
		t.Fatal(err)
	}
	cut := len(three) + 2 // two bytes into the fourth event
	pr, pw := io.Pipe()
	rest := make(chan struct{})
	go func() {
		pw.Write(whole[:cut])
		<-rest
		pw.Write(whole[cut:])
		pw.Close()
	}()
	br, err := NewBinaryReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]trace.Event, 512)
	type result struct {
		n   int
		err error
	}
	read := func() result {
		t.Helper()
		done := make(chan result, 1)
		go func() {
			n, err := br.ReadBatch(dst)
			done <- result{n, err}
		}()
		select {
		case r := <-done:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("ReadBatch waited for more than had arrived")
			return result{}
		}
	}
	if r := read(); r.n != 3 || r.err != nil {
		t.Fatalf("first batch: %d events, %v; want the 3 that arrived", r.n, r.err)
	}
	for i := range 3 {
		if !sameEvent(dst[i], evs[i]) {
			t.Fatalf("event %d is %v, want %v", i, dst[i], evs[i])
		}
	}
	close(rest)
	if r := read(); r.n != 1 || r.err != nil || !sameEvent(dst[0], evs[3]) {
		t.Fatalf("second batch: %d events (%v), %v; want the torn event %v", r.n, dst[0], r.err, evs[3])
	}
	if r := read(); r.n != 0 || r.err != io.EOF {
		t.Fatalf("after the last event: %d events, %v; want EOF", r.n, r.err)
	}
}

// TestBinaryReaderMaxPayload: an event carrying the largest payload the
// format allows, far past the reader's initial buffer, decodes whole.
func TestBinaryReaderMaxPayload(t *testing.T) {
	big := bytes.Repeat([]byte{0xa5}, maxPayloadSize)
	evs := []trace.Event{{TS: 1, Type: 2, Arg: 3}, {TS: 4, Type: 5, Arg: 6, Payload: big}, {TS: 7}}
	data, err := AppendBinary(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBinaryReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(br)
	if err != nil || len(got) != len(evs) {
		t.Fatalf("decoded %d events, %v; want %d", len(got), err, len(evs))
	}
	for i := range evs {
		if !sameEvent(got[i], evs[i]) {
			t.Fatalf("event %d differs (payload %d bytes, want %d)", i, len(got[i].Payload), len(evs[i].Payload))
		}
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	if err := bw.Write(trace.Event{TS: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(trace.Event{TS: time.Millisecond}); !errors.Is(err, trace.ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
}

// TestAppendBinaryMatchesWriter pins AppendBinary byte for byte against
// BinaryWriter: the empty trace (header only), random streams with zero
// deltas and payloads, appended after existing bytes — and the same
// out-of-order refusal.
func TestAppendBinaryMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prefix := []byte("already here")
	for _, n := range []int{0, 1, 7, 500} {
		evs := randomStream(rng, n)
		var want bytes.Buffer
		bw, err := NewBinaryWriter(&want)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := bw.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := AppendBinary(append([]byte(nil), prefix...), evs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("n=%d: AppendBinary emitted %d bytes that differ from BinaryWriter's %d",
				n, len(got)-len(prefix), want.Len())
		}
	}
	_, err := AppendBinary(nil, []trace.Event{{TS: 2 * time.Millisecond}, {TS: time.Millisecond}})
	if !errors.Is(err, trace.ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
}

func TestEncodedSizeAgainstWriter(t *testing.T) {
	evs := []trace.Event{
		{TS: 0, Type: 0, Arg: 0},
		{TS: 0, Type: 300, Arg: 1 << 40, Payload: make([]byte, 130)},
		{TS: time.Second, Type: 5, Arg: 9},
	}
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	total := int64(HeaderSize())
	prev := time.Duration(0)
	for i, ev := range evs {
		if err := bw.Write(ev); err != nil {
			t.Fatal(err)
		}
		total += int64(EncodedSize(ev, prev, i == 0))
		prev = ev.TS
	}
	if total != bw.BytesWritten() {
		t.Fatalf("EncodedSize sum %d != writer %d", total, bw.BytesWritten())
	}
}

func TestTextWriterFormat(t *testing.T) {
	evs := []trace.Event{
		{TS: 0, Type: 3, Arg: 7},
		{TS: 1500 * time.Microsecond, Type: 1, Arg: 1 << 40, Payload: []byte{0x00, 0xab, 0x10}},
	}
	reg := trace.NewRegistry()
	reg.Register(1, "buffer")
	for _, c := range []struct {
		reg  *trace.Registry
		want string
	}{
		{nil, "0,3,7,\n1500000,1,1099511627776,00ab10\n"},
		{reg, "0,3,7,,type3\n1500000,1,1099511627776,00ab10,buffer\n"},
	} {
		var buf bytes.Buffer
		tw := NewTextWriter(&buf, c.reg)
		for _, ev := range evs {
			if err := tw.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != c.want {
			t.Fatalf("text trace %q, want %q", got, c.want)
		}
	}
}

// FuzzBinaryReader feeds arbitrary bytes to the .etrc reader behind
// learn and monitor. It must never panic, whatever ends a stream must be
// sticky, batches of one over the whole input and batches of seven over
// a source that yields one byte a read must agree on the events and the
// error, and the events it decodes before that end — every event
// of a stream it accepts — must re-encode through BinaryWriter, to the
// size SizeAccountant prices them at, and decode to the same events,
// ending cleanly.
func FuzzBinaryReader(f *testing.F) {
	encode := func(evs []trace.Event) []byte {
		var buf bytes.Buffer
		bw, err := NewBinaryWriter(&buf)
		if err != nil {
			f.Fatal(err)
		}
		for _, ev := range evs {
			if err := bw.Write(ev); err != nil {
				f.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode(nil))
	full := encode(randomStream(rand.New(rand.NewSource(5)), 20))
	f.Add(full)
	for _, cut := range []int{1, 4, 5, 6, 8, len(full) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Add([]byte("ETRS\x01"))
	f.Add([]byte("ETRC\x02"))
	// head starts a fresh stream on every call, so no two seeds share
	// bytes.
	head := func(b ...byte) []byte { return append([]byte(magic+"\x01"), b...) }
	// Non-minimal varints (dts 0 in two bytes, type 1 in three), a type
	// past 16 bits, a payload length past the limit, and a timestamp that
	// wraps int64.
	f.Add(head(0x80, 0x00, 0x81, 0x80, 0x00, 5, 0, 1, 0x80, 0x80, 0x04, 0, 0))
	f.Add(append(binary.AppendUvarint(head(1, 2, 3), maxPayloadSize+1), 'x'))
	f.Add(append(binary.AppendUvarint(head(), math.MaxInt64), 1, 1, 0, 1, 1, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := NewBinaryReader(bytes.NewReader(data))
		// Byte by byte, with the source's EOF arriving beside its last
		// byte, the header and the events read the same.
		tr, terr := NewBinaryReader(iotest.DataErrReader(iotest.OneByteReader(bytes.NewReader(data))))
		if (err == nil) != (terr == nil) || err != nil && err.Error() != terr.Error() {
			t.Fatalf("header read whole: %v; byte by byte: %v", err, terr)
		}
		if err != nil {
			return
		}
		var evs []trace.Event
		var end error
		for {
			ev, err := readOne(br)
			if err != nil {
				if _, err2 := readOne(br); err2 == nil || err2.Error() != err.Error() {
					t.Fatalf("ReadBatch after terminal error %v: %v", err, err2)
				}
				end = err
				break
			}
			if ev.TS < 0 || (len(evs) > 0 && ev.TS < evs[len(evs)-1].TS) {
				t.Fatalf("event %d decoded at %v, after %d events", len(evs), ev.TS, len(evs))
			}
			evs = append(evs, ev)
		}
		got, gotErr := readAllBatched(tr, 7)
		if gotErr.Error() != end.Error() || len(got) != len(evs) {
			t.Fatalf("batches of 7 byte by byte: %d events, %v; batches of one: %d, %v", len(got), gotErr, len(evs), end)
		}
		for i := range evs {
			if !sameEvent(got[i], evs[i]) {
				t.Fatalf("event %d: batches of 7 %v, batches of one %v", i, got[i], evs[i])
			}
		}

		var buf bytes.Buffer
		bw, err := NewBinaryWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		acct := NewSizeAccountant()
		for i, ev := range evs {
			if err := bw.Write(ev); err != nil {
				t.Fatalf("decoded event %d does not re-encode: %v", i, err)
			}
			acct.Write(ev)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := int64(buf.Len()); n != bw.BytesWritten() || n != acct.Bytes() {
			t.Fatalf("re-encoded to %d bytes; the writer counted %d, the accountant %d", n, bw.BytesWritten(), acct.Bytes())
		}
		rr, err := NewBinaryReader(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream: %v", err)
		}
		for i, want := range evs {
			got, err := readOne(rr)
			if err != nil || !sameEvent(got, want) {
				t.Fatalf("re-encoded event %d decodes to %+v (%v), want %+v", i, got, err, want)
			}
		}
		if _, err := readOne(rr); err != io.EOF {
			t.Fatalf("re-encoded stream ends with %v after %d events, want EOF", err, len(evs))
		}
	})
}
