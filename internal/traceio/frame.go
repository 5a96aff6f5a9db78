package traceio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"enduratrace/internal/trace"
)

// Framed stream format — the network transport used by `enduratrace
// serve`. A framed stream is the binary event codec cut into
// length-prefixed frames so a receiver can make progress (and apply
// backpressure) at frame granularity instead of waiting for EOF, which a
// long-lived monitoring connection never reaches:
//
//	magic   "ETRS"            4 bytes
//	version uvarint           (1 or 2)
//	nlen    uvarint           stream-name length (may be 0)
//	name    nlen bytes        client-chosen stream name (sink naming)
//	mlen    uvarint           version >= 2 only: model-name length (may be 0)
//	model   mlen bytes        version >= 2 only: requested model name
//	frames  *                 repeated
//
// Version 2 adds the model-name field, letting a client pick which model
// of a multi-model server scores its stream; an absent (version 1) or
// empty model name means the server's default model. Writers emit version
// 1 unless a model is named, so v2-aware clients stay readable by v1
// servers whenever they don't use the new capability.
//
// each frame:
//
//	flen    uvarint           payload length; 0 marks clean end-of-stream
//	payload flen bytes        binary-codec events (see binary.go, no header)
//
// Timestamp delta-encoding continues across frame boundaries, so framing
// adds ~1 byte per frame over the plain binary codec. A stream that ends
// without the zero-length end frame was truncated (the peer died or the
// connection broke); FrameReader reports that as io.ErrUnexpectedEOF
// rather than a clean EOF, so the server can tell drained streams from
// dropped ones.

const (
	frameMagic      = "ETRS"
	frameVersion1   = 1
	frameVersion2   = 2
	maxFrameVersion = frameVersion2
	maxFrameSize    = 1 << 24 // sanity bound when decoding
	maxStreamName   = 256
	maxModelName    = 256
	// DefaultFrameBytes is the auto-flush threshold of FrameWriter: a frame
	// is emitted once its payload reaches this size (callers can still
	// Flush earlier for latency).
	DefaultFrameBytes = 32 << 10
)

// ErrBadFrameMagic is returned when a stream does not start with the framed
// stream magic.
var ErrBadFrameMagic = errors.New("traceio: bad magic, not an enduratrace framed stream")

// FrameWriter encodes events into length-prefixed frames on an io.Writer
// (typically a net.Conn). It is the client half of the serve protocol.
type FrameWriter struct {
	w       *bufio.Writer
	frame   bytes.Buffer
	last    time.Duration
	started bool
	closed  bool
	scratch [binary.MaxVarintLen64]byte
	// FrameBytes is the auto-flush threshold; zero means DefaultFrameBytes.
	FrameBytes int
}

// NewFrameWriter emits the stream header (with the client-chosen stream
// name, which the server uses to label per-stream sinks) and returns the
// writer. An empty name is allowed; the server then assigns one. The
// header is written as version 1, readable by every server.
func NewFrameWriter(w io.Writer, name string) (*FrameWriter, error) {
	return NewFrameWriterModel(w, name, "")
}

// NewFrameWriterModel is NewFrameWriter plus a requested model name: a
// non-empty model asks a multi-model server to score this stream with
// that model (unknown names are rejected at registration, closing the
// connection) and upgrades the header to version 2. An empty model keeps
// the version 1 header — byte-identical to NewFrameWriter — so clients
// that don't pick a model remain compatible with version 1 servers.
func NewFrameWriterModel(w io.Writer, name, model string) (*FrameWriter, error) {
	if len(name) > maxStreamName {
		return nil, fmt.Errorf("traceio: stream name %d bytes exceeds %d", len(name), maxStreamName)
	}
	if len(model) > maxModelName {
		return nil, fmt.Errorf("traceio: model name %d bytes exceeds %d", len(model), maxModelName)
	}
	version := uint64(frameVersion1)
	if model != "" {
		version = frameVersion2
	}
	fw := &FrameWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := fw.w.WriteString(frameMagic); err != nil {
		return nil, err
	}
	n := binary.PutUvarint(fw.scratch[:], version)
	if _, err := fw.w.Write(fw.scratch[:n]); err != nil {
		return nil, err
	}
	n = binary.PutUvarint(fw.scratch[:], uint64(len(name)))
	if _, err := fw.w.Write(fw.scratch[:n]); err != nil {
		return nil, err
	}
	if _, err := fw.w.WriteString(name); err != nil {
		return nil, err
	}
	if version >= frameVersion2 {
		n = binary.PutUvarint(fw.scratch[:], uint64(len(model)))
		if _, err := fw.w.Write(fw.scratch[:n]); err != nil {
			return nil, err
		}
		if _, err := fw.w.WriteString(model); err != nil {
			return nil, err
		}
	}
	return fw, nil
}

// Write implements trace.Writer: the event is appended to the current
// frame, which is emitted automatically once it reaches FrameBytes.
func (fw *FrameWriter) Write(ev trace.Event) error {
	if fw.closed {
		return errors.New("traceio: write on closed frame stream")
	}
	dts, err := deltaTS(ev, fw.last, fw.started)
	if err != nil {
		return err
	}
	fw.started = true
	fw.last = ev.TS

	var buf [4 * binary.MaxVarintLen64]byte
	fw.frame.Write(appendEventHeader(buf[:0], dts, ev))
	fw.frame.Write(ev.Payload)

	limit := fw.FrameBytes
	if limit <= 0 {
		limit = DefaultFrameBytes
	}
	if fw.frame.Len() >= limit {
		return fw.Flush()
	}
	return nil
}

// Flush emits the pending frame (if any) and flushes the underlying
// writer. Call it to bound the latency of a slow trickle of events.
func (fw *FrameWriter) Flush() error {
	if fw.frame.Len() > 0 {
		n := binary.PutUvarint(fw.scratch[:], uint64(fw.frame.Len()))
		if _, err := fw.w.Write(fw.scratch[:n]); err != nil {
			return err
		}
		if _, err := fw.w.Write(fw.frame.Bytes()); err != nil {
			return err
		}
		fw.frame.Reset()
	}
	return fw.w.Flush()
}

// Close flushes pending events and writes the end-of-stream marker. The
// underlying writer (e.g. the socket) is not closed. Close is idempotent.
func (fw *FrameWriter) Close() error {
	if fw.closed {
		return nil
	}
	if err := fw.Flush(); err != nil {
		return err
	}
	fw.closed = true
	n := binary.PutUvarint(fw.scratch[:], 0)
	if _, err := fw.w.Write(fw.scratch[:n]); err != nil {
		return err
	}
	return fw.w.Flush()
}

// FrameReader decodes a framed stream; it implements trace.Reader and
// trace.BatchReader. Next returns io.EOF only on a clean end-of-stream
// marker; a connection that dies mid-stream yields io.ErrUnexpectedEOF.
//
// Readers are pooled: NewFrameReader draws one from a shared pool so a
// server accepting many connections reuses the 64 KB read buffer and the
// frame buffer instead of re-allocating them per connection. Call Release
// when done with a stream to return the buffers to the pool.
type FrameReader struct {
	r       *bufio.Reader
	frame   []byte // undecoded rest of the current frame; aliases buf
	buf     []byte
	name    string
	model   string
	version int
	last    time.Duration
	evBytes int64 // canonical encoded size of the events decoded so far
	err     error
}

// frameReaderPool recycles FrameReaders — and with them the bufio read
// buffer and the grown frame buffer — across connections.
var frameReaderPool = sync.Pool{
	New: func() any {
		return &FrameReader{r: bufio.NewReaderSize(nil, 1<<16)}
	},
}

// NewFrameReader validates the header and returns the reader. Both header
// versions are accepted: version 1 streams simply carry no model name.
func NewFrameReader(r io.Reader) (*FrameReader, error) {
	fr := frameReaderPool.Get().(*FrameReader)
	fr.reset(r)
	if err := fr.readHeader(); err != nil {
		fr.Release()
		return nil, err
	}
	return fr, nil
}

func (fr *FrameReader) reset(r io.Reader) {
	fr.r.Reset(r)
	fr.frame = nil
	fr.name, fr.model = "", ""
	fr.version = 0
	fr.last = 0
	fr.evBytes = 0
	fr.err = nil
}

// Release returns the reader and its buffers to the shared pool; the
// caller must not touch fr afterwards. Events previously returned stay
// valid — payloads never alias the pooled buffers. Releasing is optional
// (an abandoned reader is simply garbage collected), but servers should
// release on every connection-teardown path.
func (fr *FrameReader) Release() {
	fr.reset(nil)
	frameReaderPool.Put(fr)
}

func (fr *FrameReader) readHeader() error {
	head := fr.growBuf(len(frameMagic))
	if _, err := io.ReadFull(fr.r, head); err != nil {
		return fmt.Errorf("traceio: reading frame header: %w", err)
	}
	if string(head) != frameMagic {
		return ErrBadFrameMagic
	}
	v, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return fmt.Errorf("traceio: reading frame version: %w", unexpectedEOF(err))
	}
	if v < frameVersion1 || v > maxFrameVersion {
		return fmt.Errorf("traceio: unsupported framed stream version %d (supported: 1..%d)", v, maxFrameVersion)
	}
	fr.version = int(v)
	if fr.name, err = fr.headerString("stream", maxStreamName); err != nil {
		return err
	}
	if v >= frameVersion2 {
		if fr.model, err = fr.headerString("model", maxModelName); err != nil {
			return err
		}
	}
	return nil
}

// growBuf returns fr.buf resized to n bytes, growing its capacity only
// when needed so pooled readers stop allocating once warm.
func (fr *FrameReader) growBuf(n int) []byte {
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	return fr.buf
}

// headerString reads one length-prefixed header field through the reused
// frame buffer; only the retained string itself allocates.
func (fr *FrameReader) headerString(what string, max uint64) (string, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return "", fmt.Errorf("traceio: reading %s-name length: %w", what, unexpectedEOF(err))
	}
	if n > max {
		return "", fmt.Errorf("traceio: %s name %d bytes exceeds %d", what, n, max)
	}
	if n == 0 {
		return "", nil
	}
	b := fr.growBuf(int(n))
	if _, err := io.ReadFull(fr.r, b); err != nil {
		return "", fmt.Errorf("traceio: reading %s name: %w", what, unexpectedEOF(err))
	}
	return string(b), nil
}

// StreamName returns the client-chosen stream name from the header ("" if
// the client sent none).
func (fr *FrameReader) StreamName() string { return fr.name }

// ModelName returns the model the client asked to be scored with ("" for
// version 1 headers and version 2 headers naming none — both mean the
// server's default model).
func (fr *FrameReader) ModelName() string { return fr.model }

// Version returns the decoded header version (1 or 2).
func (fr *FrameReader) Version() int { return fr.version }

// Next implements trace.Reader.
func (fr *FrameReader) Next() (trace.Event, error) {
	if fr.err != nil {
		return trace.Event{}, fr.err
	}
	if len(fr.frame) == 0 {
		if err := fr.loadFrame(); err != nil {
			return trace.Event{}, err
		}
	}
	var ev trace.Event
	b, err := fr.decodeEvent(fr.frame, &ev, nil)
	if err != nil {
		return trace.Event{}, err
	}
	fr.frame = b
	return ev, nil
}

// EventBytes returns the exact number of bytes the plain binary codec
// (BinaryWriter, EncodedSize) takes for every event decoded so far — the
// stream's full-trace size without its header, counted as the events
// are decoded. A sender's non-minimal varints do not count: the size is
// that of the canonical encoding.
func (fr *FrameReader) EventBytes() int64 { return fr.evBytes }

// Wait blocks until the reader has something to decode without waiting on
// its source: the rest of the current frame, or at least one buffered
// byte of the next. A read error while waiting latches as the error the
// next read reports. It lets a caller tell waiting for a sender apart
// from decoding; ReadBatch may still block for the rest of a frame whose
// first bytes have arrived.
func (fr *FrameReader) Wait() {
	if fr.err != nil || len(fr.frame) > 0 {
		return
	}
	if _, err := fr.r.Peek(1); err != nil {
		fr.err = errTruncated(err)
	}
}

// ReadBatch implements trace.BatchReader: it decodes into dst every
// event already buffered — blocking only when nothing is available at
// all — so one syscall's worth of frames drains in one call. After the
// first event, a further frame is consumed only when it is already fully
// buffered, so a batch never stalls the caller waiting for a slow
// sender. Payloads are carved out of a fresh per-call arena (one
// allocation amortised across the batch, never reused), so the returned
// events are caller-owned exactly like Next's. When an error (or clean
// EOF) strikes after n > 0 events were decoded, ReadBatch returns
// (n, nil) and surfaces the latched error on the next call, so the event
// sequence a batch consumer sees is byte-identical to a Next loop's.
func (fr *FrameReader) ReadBatch(dst []trace.Event) (int, error) {
	if fr.err != nil {
		return 0, fr.err
	}
	var arena []byte
	n := 0
	for n < len(dst) {
		if len(fr.frame) == 0 {
			if n > 0 && !fr.frameAvailable() {
				break
			}
			if err := fr.loadFrame(); err != nil {
				if n > 0 {
					return n, nil
				}
				return 0, err
			}
		}
		// Decode the frame's events straight into dst.
		b := fr.frame
		for ; n < len(dst) && len(b) > 0; n++ {
			var err error
			if b, err = fr.decodeEvent(b, &dst[n], &arena); err != nil {
				if n > 0 {
					return n, nil
				}
				return 0, err
			}
		}
		fr.frame = b
	}
	return n, nil
}

// frameAvailable reports whether the next frame (or the end-of-stream
// marker) is already fully buffered, i.e. whether loadFrame cannot block.
// It peeks only at bytes already buffered, never triggering a read.
func (fr *FrameReader) frameAvailable() bool {
	avail := fr.r.Buffered()
	if avail == 0 {
		return false
	}
	if avail > binary.MaxVarintLen64 {
		avail = binary.MaxVarintLen64
	}
	head, _ := fr.r.Peek(avail)
	flen, n := binary.Uvarint(head)
	if n == 0 {
		return false // length prefix not fully buffered
	}
	if n < 0 || flen == 0 || flen > maxFrameSize {
		return true // EOS marker, or an error loadFrame should surface now
	}
	return fr.r.Buffered() >= n+int(flen)
}

// loadFrame reads the next frame into fr.frame, reusing the frame
// buffer. The clean end-of-stream marker latches and returns io.EOF;
// every other failure latches a descriptive error.
func (fr *FrameReader) loadFrame() error {
	flen, err := binary.ReadUvarint(fr.r)
	if err != nil {
		fr.err = errTruncated(err)
		return fr.err
	}
	if flen == 0 {
		fr.err = io.EOF
		return io.EOF
	}
	if flen > maxFrameSize {
		fr.err = fmt.Errorf("traceio: frame length %d exceeds limit", flen)
		return fr.err
	}
	buf := fr.growBuf(int(flen))
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		fr.err = fmt.Errorf("traceio: reading frame payload: %w", unexpectedEOF(err))
		return fr.err
	}
	fr.frame = buf
	return nil
}

// errTruncated is the error of a stream that fails between frames: EOF
// there, without the end marker, is a truncation.
func errTruncated(err error) error {
	return fmt.Errorf("traceio: stream truncated mid-frame: %w", unexpectedEOF(err))
}

// errVarintOverflow has the text of encoding/binary's unexported overflow
// error, so an overflowing varint reads the same here as from BinaryReader,
// which decodes through binary.ReadUvarint.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// decodeEvent decodes the event at the front of b, the unread rest of
// the current frame, into *ev and returns what follows it; *ev is written
// only on success. A nil arena allocates the payload individually (the
// Next path); otherwise the payload is carved from *arena, which grows by
// replacement so earlier carvings stay valid.
func (fr *FrameReader) decodeEvent(b []byte, ev *trace.Event, arena *[]byte) ([]byte, error) {
	// A one-byte varint — most fields of a real trace — is read inline;
	// size counts the header's canonical encoded length.
	var dts, typ, arg, plen uint64
	var n int
	if len(b) > 0 && b[0] < 0x80 {
		dts, n = uint64(b[0]), 1
	} else if dts, n = binary.Uvarint(b); n <= 0 {
		return b, fr.failVarint("dts", b, n)
	}
	if dts > uint64(math.MaxInt64-fr.last) {
		return b, fr.fail("dts", errTSOverflow)
	}
	size := canonicalLen(dts, n)
	b = b[n:]
	if len(b) > 0 && b[0] < 0x80 {
		typ, n = uint64(b[0]), 1
	} else if typ, n = binary.Uvarint(b); n <= 0 {
		return b, fr.failVarint("type", b, n)
	}
	// The event keeps the type's low 16 bits, and so does its encoding.
	size += canonicalLen(uint64(trace.EventType(typ)), n)
	b = b[n:]
	if len(b) > 0 && b[0] < 0x80 {
		arg, n = uint64(b[0]), 1
	} else if arg, n = binary.Uvarint(b); n <= 0 {
		return b, fr.failVarint("arg", b, n)
	}
	size += canonicalLen(arg, n)
	b = b[n:]
	if len(b) > 0 && b[0] < 0x80 {
		plen, n = uint64(b[0]), 1
	} else if plen, n = binary.Uvarint(b); n <= 0 {
		return b, fr.failVarint("payload length", b, n)
	}
	size += canonicalLen(plen, n)
	b = b[n:]
	if plen > maxPayloadSize {
		fr.err = fmt.Errorf("traceio: payload length %d exceeds limit", plen)
		return b, fr.err
	}
	var payload []byte
	if plen > 0 {
		if uint64(len(b)) < plen {
			return b, fr.fail("payload", io.ErrUnexpectedEOF)
		}
		if arena == nil {
			payload = make([]byte, plen)
		} else {
			a := *arena
			if cap(a)-len(a) < int(plen) {
				// Fresh backing array — previously carved payloads keep the
				// old one, so they are never clobbered or retained together.
				grown := 2*cap(a) + int(plen)
				if grown < 1024 {
					grown = 1024
				}
				a = make([]byte, 0, grown)
			}
			payload = a[len(a) : len(a)+int(plen)]
			*arena = a[:len(a)+int(plen)]
		}
		copy(payload, b)
		b = b[plen:]
	}
	fr.last += time.Duration(dts)
	fr.evBytes += int64(size) + int64(plen)
	ev.TS = fr.last
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

// failVarint latches the failure binary.Uvarint(b) reported through
// n <= 0. A varint cut off by the end of the frame is a truncation; one
// that overflows 64 bits is not — and ten continuation bytes overflow even
// when they are the frame's last, which Uvarint reports as cut off.
func (fr *FrameReader) failVarint(what string, b []byte, n int) error {
	if n == 0 && len(b) < binary.MaxVarintLen64 {
		return fr.fail(what, io.ErrUnexpectedEOF)
	}
	return fr.fail(what, errVarintOverflow)
}

func (fr *FrameReader) fail(what string, err error) error {
	fr.err = fmt.Errorf("traceio: reading frame event %s: %w", what, err)
	return fr.err
}
