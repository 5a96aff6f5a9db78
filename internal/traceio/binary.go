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

// BinaryReader decodes a binary trace stream.
type BinaryReader struct {
	r    *bufio.Reader
	last time.Duration
	err  error
}

// NewBinaryReader validates the header and returns a reader.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br.r, head); err != nil {
		return nil, fmt.Errorf("traceio: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, ErrBadMagic
	}
	v, err := binary.ReadUvarint(br.r)
	if err != nil {
		return nil, fmt.Errorf("traceio: reading version: %w", err)
	}
	if v != formatVersion {
		return nil, fmt.Errorf("traceio: unsupported format version %d", v)
	}
	return br, nil
}

// Next implements trace.Reader.
func (br *BinaryReader) Next() (trace.Event, error) {
	if br.err != nil {
		return trace.Event{}, br.err
	}
	dts, err := binary.ReadUvarint(br.r)
	if err != nil {
		if err == io.EOF {
			br.err = io.EOF
			return trace.Event{}, io.EOF
		}
		br.err = fmt.Errorf("traceio: reading dts: %w", err)
		return trace.Event{}, br.err
	}
	if dts > uint64(math.MaxInt64-br.last) {
		br.err = fmt.Errorf("traceio: reading dts: %w", errTSOverflow)
		return trace.Event{}, br.err
	}
	typ, err := binary.ReadUvarint(br.r)
	if err != nil {
		br.err = fmt.Errorf("traceio: reading type: %w", unexpectedEOF(err))
		return trace.Event{}, br.err
	}
	arg, err := binary.ReadUvarint(br.r)
	if err != nil {
		br.err = fmt.Errorf("traceio: reading arg: %w", unexpectedEOF(err))
		return trace.Event{}, br.err
	}
	plen, err := binary.ReadUvarint(br.r)
	if err != nil {
		br.err = fmt.Errorf("traceio: reading payload length: %w", unexpectedEOF(err))
		return trace.Event{}, br.err
	}
	if plen > maxPayloadSize {
		br.err = fmt.Errorf("traceio: payload length %d exceeds limit", plen)
		return trace.Event{}, br.err
	}
	var payload []byte
	if plen > 0 {
		payload = make([]byte, plen)
		if _, err := io.ReadFull(br.r, payload); err != nil {
			br.err = fmt.Errorf("traceio: reading payload: %w", unexpectedEOF(err))
			return trace.Event{}, br.err
		}
	}
	br.last += time.Duration(dts)
	return trace.Event{TS: br.last, Type: trace.EventType(typ), Arg: arg, Payload: payload}, nil
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
