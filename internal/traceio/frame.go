package traceio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// FrameReader decodes a framed stream; it implements trace.Reader. It
// returns io.EOF only on a clean end-of-stream marker; a connection that
// dies mid-stream yields io.ErrUnexpectedEOF.
//
// Readers are pooled: NewFrameReader draws one from a shared pool so a
// server accepting many connections reuses the 64 KB read buffer and the
// frame buffer instead of re-allocating them per connection. Call Release
// when done with a stream to return the buffers to the pool.
type FrameReader struct {
	r     *bufio.Reader
	frame []byte // undecoded rest of the current frame; aliases buf
	buf   []byte
	name  string
	model string
	dec   eventDecoder // its err also latches the frame layer's errors
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
	fr.dec = eventDecoder{prefix: framePrefix, end: io.ErrUnexpectedEOF}
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

// EventBytes returns the exact number of bytes the plain binary codec
// (BinaryWriter, EncodedSize) takes for every event decoded so far — the
// stream's full-trace size without its header, counted as the events
// are decoded. A sender's non-minimal varints do not count: the size is
// that of the canonical encoding.
func (fr *FrameReader) EventBytes() int64 { return fr.dec.evBytes }

// Wait blocks until the reader has something to decode without waiting on
// its source: the rest of the current frame, or at least one buffered
// byte of the next. A read error while waiting latches as the error the
// next read reports. It lets a caller tell waiting for a sender apart
// from decoding; ReadBatch may still block for the rest of a frame whose
// first bytes have arrived.
func (fr *FrameReader) Wait() {
	if fr.dec.err != nil || len(fr.frame) > 0 {
		return
	}
	if _, err := fr.r.Peek(1); err != nil {
		fr.dec.err = errTruncated(err)
	}
}

// ReadBatch implements trace.Reader: it decodes into dst every event
// already buffered — blocking only when nothing is available at all —
// so one syscall's worth of frames drains in one call. After the first
// event, a further frame is consumed only when it is already fully
// buffered, so a batch never stalls the caller waiting for a slow
// sender. Payloads are carved out of a fresh per-call arena (one
// allocation amortised across the batch, never reused), so the returned
// events are caller-owned. When an error (or clean EOF) strikes after
// n > 0 events were decoded, ReadBatch returns (n, nil) and surfaces the
// latched error on the next call.
func (fr *FrameReader) ReadBatch(dst []trace.Event) (int, error) {
	if fr.dec.err != nil {
		return 0, fr.dec.err
	}
	fr.dec.arena = nil
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
			if b, err = fr.dec.decode(b, &dst[n]); err != nil {
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
		fr.dec.err = errTruncated(err)
		return fr.dec.err
	}
	if flen == 0 {
		fr.dec.err = io.EOF
		return io.EOF
	}
	if flen > maxFrameSize {
		fr.dec.err = fmt.Errorf("traceio: frame length %d exceeds limit", flen)
		return fr.dec.err
	}
	buf := fr.growBuf(int(flen))
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		fr.dec.err = fmt.Errorf("traceio: reading frame payload: %w", unexpectedEOF(err))
		return fr.dec.err
	}
	fr.frame = buf
	return nil
}

// errTruncated is the error of a stream that fails between frames: EOF
// there, without the end marker, is a truncation.
func errTruncated(err error) error {
	return fmt.Errorf("traceio: stream truncated mid-frame: %w", unexpectedEOF(err))
}
