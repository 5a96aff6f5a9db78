// Package traceio provides byte-accurate codecs for trace streams.
//
// The paper's headline metric is the on-disk size of the recorded trace
// (418 MB vs 5.9 GB, §III), so sizes here are not estimates: every reduction
// factor reported by the harness is computed from the exact number of bytes
// the binary codec emits.
//
// Binary format (version 1):
//
//	magic   "ETRC"            4 bytes
//	version uvarint           (currently 1)
//	events  *                 repeated until EOF
//
// each event:
//
//	dts     uvarint           timestamp delta vs previous event, ns
//	type    uvarint
//	arg     uvarint
//	plen    uvarint           payload length
//	payload plen bytes
//
// Delta-encoded timestamps keep regular multimedia traces compact, which is
// representative of real hardware trace formats (e.g. STP / KPTrace).
//
// Events are decoded in one place, a decoder over byte slices that keeps
// the running timestamp and the canonical encoded size (EventBytes). Its
// three callers are BinaryReader, over a buffer it refills from a file or a
// pipe; FrameReader, over the frames of the network stream (frame.go);
// and DecodeBinary, over a trace held whole in memory. Both readers are
// trace.Readers, read in batches.
package traceio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"enduratrace/internal/trace"
)

const (
	magic          = "ETRC"
	formatVersion  = 1
	maxPayloadSize = 1 << 20 // sanity bound when decoding
)

// ErrBadMagic is returned when a stream does not start with the trace magic.
var ErrBadMagic = errors.New("traceio: bad magic, not an enduratrace binary stream")

// errTSOverflow fails a stream whose timestamp deltas sum past the int64
// range: accepting it would wrap the timestamps negative, running time
// backwards.
var errTSOverflow = errors.New("timestamp overflows int64")

// deltaTS validates timestamp monotonicity and returns the delta encoded
// for ev given the stream's previous timestamp (the absolute timestamp
// for the first event). Shared by the plain and framed writers so the
// wire layout is defined once.
func deltaTS(ev trace.Event, last time.Duration, started bool) (uint64, error) {
	if started && ev.TS < last {
		return 0, fmt.Errorf("%w: %v after %v", trace.ErrOutOfOrder, ev.TS, last)
	}
	if !started {
		return uint64(ev.TS), nil
	}
	return uint64(ev.TS - last), nil
}

// appendEventHeader appends the four uvarints of one encoded event (dts,
// type, arg, payload length); the payload bytes follow separately. This
// is the event wire layout — both codecs and EncodedSize must agree with
// it.
func appendEventHeader(buf []byte, dts uint64, ev trace.Event) []byte {
	buf = binary.AppendUvarint(buf, dts)
	buf = binary.AppendUvarint(buf, uint64(ev.Type))
	buf = binary.AppendUvarint(buf, ev.Arg)
	return binary.AppendUvarint(buf, uint64(len(ev.Payload)))
}

// BinaryWriter encodes events to an io.Writer in the binary trace format.
type BinaryWriter struct {
	w       *bufio.Writer
	n       int64
	last    time.Duration
	started bool
	scratch [4 * binary.MaxVarintLen64]byte
}

// NewBinaryWriter creates a writer and emits the stream header.
func NewBinaryWriter(w io.Writer) (*BinaryWriter, error) {
	bw := &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := bw.w.WriteString(magic); err != nil {
		return nil, err
	}
	bw.n += int64(len(magic))
	n := binary.PutUvarint(bw.scratch[:], formatVersion)
	if _, err := bw.w.Write(bw.scratch[:n]); err != nil {
		return nil, err
	}
	bw.n += int64(n)
	return bw, nil
}

// Write implements trace.Writer.
func (bw *BinaryWriter) Write(ev trace.Event) error {
	dts, err := deltaTS(ev, bw.last, bw.started)
	if err != nil {
		return err
	}
	bw.started = true
	bw.last = ev.TS

	buf := appendEventHeader(bw.scratch[:0], dts, ev)
	if _, err := bw.w.Write(buf); err != nil {
		return err
	}
	bw.n += int64(len(buf))
	if len(ev.Payload) > 0 {
		if _, err := bw.w.Write(ev.Payload); err != nil {
			return err
		}
		bw.n += int64(len(ev.Payload))
	}
	return nil
}

// Flush forces buffered bytes to the underlying writer.
func (bw *BinaryWriter) Flush() error { return bw.w.Flush() }

// BytesWritten reports the total encoded size so far, including the header.
func (bw *BinaryWriter) BytesWritten() int64 { return bw.n }

// AppendBinary appends to buf one complete binary trace of evs — header,
// then every event — byte for byte what a BinaryWriter fed the same
// events emits, with no buffer of its own. For callers that embed many
// small traces in a larger record.
func AppendBinary(buf []byte, evs []trace.Event) ([]byte, error) {
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, formatVersion)
	var last time.Duration
	for i, ev := range evs {
		dts, err := deltaTS(ev, last, i > 0)
		if err != nil {
			return nil, err
		}
		last = ev.TS
		buf = appendEventHeader(buf, dts, ev)
		buf = append(buf, ev.Payload...)
	}
	return buf, nil
}

// BinaryReader decodes a binary trace stream. It reads its source into
// a buffer of its own and decodes events straight out of it; a batch
// takes whatever whole events are buffered once it has one, so a reader
// on a live pipe hands over what has arrived instead of waiting to fill
// dst.
type BinaryReader struct {
	src    io.Reader
	buf    []byte // buf[pos:] is read from src and not yet decoded
	pos    int
	srcErr error // what ended src, once something has
	dec    eventDecoder
}

// NewBinaryReader validates the header and returns a reader.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := &BinaryReader{src: r, buf: make([]byte, 0, 1<<16), dec: eventDecoder{prefix: filePrefix}}
	for {
		rest, err := readHeader(br.buf, br.srcErr)
		if err == nil {
			br.pos = len(br.buf) - len(rest)
			return br, nil
		}
		if err != errShort {
			return nil, err
		}
		br.fill()
	}
}

// ReadBatch implements trace.Reader. Once a batch holds an event it
// stops at the first event not yet wholly buffered rather than read for
// it; it reads (and blocks) only for the first.
func (br *BinaryReader) ReadBatch(dst []trace.Event) (int, error) {
	d := &br.dec
	if d.err != nil {
		return 0, d.err
	}
	d.arena = nil
	n := 0
	for n < len(dst) {
		var err error
		switch {
		case br.pos < len(br.buf):
			var rest []byte
			if rest, err = d.decode(br.buf[br.pos:], &dst[n]); err == nil {
				br.pos = len(br.buf) - len(rest)
				n++
				continue
			}
		case br.srcErr == io.EOF: // the source ended between two events
			d.err, err = io.EOF, io.EOF
		case br.srcErr != nil:
			err = d.fail("dts", br.srcErr)
		}
		// Nothing more to decode without reading: err is nil (nothing
		// buffered), errShort or the latched end of the stream.
		if n > 0 {
			return n, nil
		}
		if err != nil && err != errShort {
			return 0, err
		}
		br.fill()
	}
	return n, nil
}

// EventBytes returns the canonical encoded size of every event decoded so
// far, as FrameReader.EventBytes does.
func (br *BinaryReader) EventBytes() int64 { return br.dec.evBytes }

// fill reads more of the source behind the undecoded bytes, moving them
// to the front of the buffer first — into a buffer twice the size when
// they fill it, which stays bounded because an event is at most four
// varints and maxPayloadSize long. A source that fails is done: srcErr
// says why.
func (br *BinaryReader) fill() {
	if br.pos > 0 {
		br.buf = br.buf[:copy(br.buf, br.buf[br.pos:])]
		br.pos = 0
	}
	if len(br.buf) == cap(br.buf) {
		br.buf = append(make([]byte, 0, 2*cap(br.buf)), br.buf...)
	}
	m, err := br.src.Read(br.buf[len(br.buf):cap(br.buf)])
	br.buf = br.buf[:len(br.buf)+m]
	if err != nil {
		br.srcErr = err
		br.dec.end = unexpectedEOF(err)
	}
}

// readHeader checks the stream header at the front of b and returns what
// follows it. When b ends inside the header, end says why: nil (more may
// follow) returns errShort, as eventDecoder.decode does.
func readHeader(b []byte, end error) ([]byte, error) {
	short := func(what string, b []byte) error {
		if end == nil {
			return errShort
		}
		if len(b) > 0 {
			end = unexpectedEOF(end)
		}
		return fmt.Errorf("traceio: reading %s: %w", what, end)
	}
	if len(b) < len(magic) {
		return b, short("header", b)
	}
	if string(b[:len(magic)]) != magic {
		return b, ErrBadMagic
	}
	b = b[len(magic):]
	v, n := binary.Uvarint(b)
	if n == 0 && len(b) < binary.MaxVarintLen64 {
		return b, short("version", b)
	}
	if n <= 0 { // ten continuation bytes overflow even when they end b
		return b, fmt.Errorf("traceio: reading version: %w", errVarintOverflow)
	}
	if v != formatVersion {
		return b, fmt.Errorf("traceio: unsupported format version %d", v)
	}
	return b[n:], nil
}

// DecodeBinary decodes blob, one complete binary trace (what AppendBinary
// appends or a BinaryWriter writes), into its events. A first pass counts
// the events and their payload bytes, so the events take one allocation
// and their payloads another.
func DecodeBinary(blob []byte) ([]trace.Event, error) {
	b, err := readHeader(blob, io.EOF)
	if err != nil {
		return nil, err
	}
	d := eventDecoder{prefix: filePrefix, end: io.ErrUnexpectedEOF}
	var evs []trace.Event
	if n, payload := countEvents(b); n > 0 {
		evs = make([]trace.Event, 0, n)
		d.arena = make([]byte, 0, payload)
	}
	for len(b) > 0 {
		var ev trace.Event
		if b, err = d.decode(b, &ev); err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// countEvents counts the events at the front of b and their payload
// bytes without checking them: it stops where b stops making sense.
func countEvents(b []byte) (n, payload int) {
	for len(b) > 0 {
		var plen uint64
		for range 4 { // dts, type, arg and payload length
			var k int
			if plen, k = binary.Uvarint(b); k <= 0 {
				return n, payload
			}
			b = b[k:]
		}
		if plen > uint64(len(b)) {
			return n, payload
		}
		b = b[plen:]
		n++
		payload += int(plen)
	}
	return n, payload
}

// The error text before the name of the field an event fails in.
const (
	filePrefix  = "traceio: reading "
	framePrefix = "traceio: reading frame event "
)

// eventDecoder decodes the binary codec's events out of byte slices: the
// one event decoder, behind BinaryReader, FrameReader and DecodeBinary.
// It carries what a stream's decoding accumulates — the running
// timestamp and the canonical encoded size of the events so far — and
// latches the first error.
type eventDecoder struct {
	prefix  string
	end     error // what b ending inside an event means: nil while more bytes may follow
	last    time.Duration
	evBytes int64  // canonical encoded size of the events decoded so far
	arena   []byte // payloads are carved from here; see decode
	err     error
}

// errShort is decode's report that b ends inside the event while more
// bytes may follow; it is never latched.
var errShort = errors.New("traceio: event continues past the buffered bytes")

// errVarintOverflow has the text of encoding/binary's unexported overflow
// error, so an overflowing varint reads as it did through
// binary.ReadUvarint.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// decode decodes the event at the front of b into *ev and returns what
// follows it; *ev is written only on success. When b ends inside the
// event and d.end is nil, more bytes may follow, and decode returns
// errShort; otherwise the event is truncated, and decode latches d.end
// against the field it cuts. Payloads are carved from d.arena, which
// grows by replacement, so earlier carvings stay valid and are never
// reused: a caller that wants a batch's payloads kept apart from the
// next batch's resets the arena to nil between them.
func (d *eventDecoder) decode(b []byte, ev *trace.Event) ([]byte, error) {
	// A one-byte varint — most fields of a real trace — is read inline;
	// size counts the header's canonical encoded length.
	var dts, typ, arg, plen uint64
	var n int
	if len(b) > 0 && b[0] < 0x80 {
		dts, n = uint64(b[0]), 1
	} else if dts, n = binary.Uvarint(b); n <= 0 {
		return b, d.failVarint("dts", b, n)
	}
	if dts > uint64(math.MaxInt64-d.last) {
		return b, d.fail("dts", errTSOverflow)
	}
	size := canonicalLen(dts, n)
	b = b[n:]
	if len(b) > 0 && b[0] < 0x80 {
		typ, n = uint64(b[0]), 1
	} else if typ, n = binary.Uvarint(b); n <= 0 {
		return b, d.failVarint("type", b, n)
	}
	// The event keeps the type's low 16 bits, and so does its encoding.
	size += canonicalLen(uint64(trace.EventType(typ)), n)
	b = b[n:]
	if len(b) > 0 && b[0] < 0x80 {
		arg, n = uint64(b[0]), 1
	} else if arg, n = binary.Uvarint(b); n <= 0 {
		return b, d.failVarint("arg", b, n)
	}
	size += canonicalLen(arg, n)
	b = b[n:]
	if len(b) > 0 && b[0] < 0x80 {
		plen, n = uint64(b[0]), 1
	} else if plen, n = binary.Uvarint(b); n <= 0 {
		return b, d.failVarint("payload length", b, n)
	}
	size += canonicalLen(plen, n)
	b = b[n:]
	if plen > maxPayloadSize {
		d.err = fmt.Errorf("traceio: payload length %d exceeds limit", plen)
		return b, d.err
	}
	var payload []byte
	if plen > 0 {
		if uint64(len(b)) < plen {
			return b, d.short("payload")
		}
		a := d.arena
		if cap(a)-len(a) < int(plen) {
			// Fresh backing array — previously carved payloads keep the
			// old one, so they are never clobbered or retained together.
			a = make([]byte, 0, max(2*cap(a)+int(plen), 1024))
		}
		payload = a[len(a) : len(a)+int(plen)]
		d.arena = a[:len(a)+int(plen)]
		copy(payload, b)
		b = b[plen:]
	}
	d.last += time.Duration(dts)
	d.evBytes += int64(size) + int64(plen)
	ev.TS = d.last
	ev.Type = trace.EventType(typ)
	ev.Arg = arg
	ev.Payload = payload
	return b, nil
}

// canonicalLen is the minimal encoded length of v, read from n bytes: a
// one-byte varint is already minimal.
func canonicalLen(v uint64, n int) int {
	if n == 1 {
		return 1
	}
	return uvarintLen(v)
}

// failVarint reports the failure binary.Uvarint(b) reported through
// n <= 0. A varint cut off by the end of b is a short event; one that
// overflows 64 bits is an error — and ten continuation bytes overflow
// even when they are b's last, which Uvarint reports as cut off.
func (d *eventDecoder) failVarint(what string, b []byte, n int) error {
	if n == 0 && len(b) < binary.MaxVarintLen64 {
		return d.short(what)
	}
	return d.fail(what, errVarintOverflow)
}

// short reports b ending inside the event's field what: see decode.
func (d *eventDecoder) short(what string) error {
	if d.end == nil {
		return errShort
	}
	return d.fail(what, d.end)
}

func (d *eventDecoder) fail(what string, err error) error {
	d.err = fmt.Errorf("%s%s: %w", d.prefix, what, err)
	return d.err
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// EncodedSize returns the exact number of bytes Write would emit for ev
// given the previous event timestamp prev (use 0 and first=true for the
// first event). It lets size accounting run without materialising bytes.
func EncodedSize(ev trace.Event, prev time.Duration, first bool) int {
	dts := uint64(ev.TS - prev)
	if first {
		dts = uint64(ev.TS)
	}
	return uvarintLen(dts) +
		uvarintLen(uint64(ev.Type)) +
		uvarintLen(ev.Arg) +
		uvarintLen(uint64(len(ev.Payload))) +
		len(ev.Payload)
}

// HeaderSize is the encoded size of the stream header.
func HeaderSize() int { return len(magic) + uvarintLen(formatVersion) }

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// SizeAccountant accumulates the exact encoded size of an event stream
// without writing any bytes. It is the cheap path used by the evaluation
// harness to price the "record everything" baseline.
type SizeAccountant struct {
	n     int64
	last  time.Duration
	first bool
}

// NewSizeAccountant returns an accountant primed with the header size.
func NewSizeAccountant() *SizeAccountant {
	return &SizeAccountant{n: int64(HeaderSize()), first: true}
}

// Write implements trace.Writer; it only accumulates size.
func (s *SizeAccountant) Write(ev trace.Event) error {
	s.n += int64(EncodedSize(ev, s.last, s.first))
	s.last = ev.TS
	s.first = false
	return nil
}

// Bytes reports the accumulated encoded size.
func (s *SizeAccountant) Bytes() int64 { return s.n }
