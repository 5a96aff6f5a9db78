// Package recorder implements the storage side of the monitor: when a trace
// window is flagged as suspicious it is recorded to a device (§II); the
// headline metric of the paper is how few bytes end up here (418 MB vs
// 5.9 GB, §III). Sinks account sizes with the exact binary trace encoding.
package recorder

import (
	"compress/flate"
	"fmt"
	"io"

	"enduratrace/internal/traceio"
	"enduratrace/internal/window"
)

// Sink consumes recorded (suspicious) trace windows.
type Sink interface {
	// Record stores one window. Windows arrive in stream order.
	Record(w window.Window) error
	// Close flushes and releases resources.
	Close() error
	// BytesWritten reports the size of everything recorded so far, in
	// encoded trace bytes (after compression for compressing sinks).
	BytesWritten() int64
	// WindowsRecorded reports how many windows were recorded.
	WindowsRecorded() int
}

// NullSink discards window contents but accounts their encoded size, which
// makes it the cheapest way to measure reduction factors.
type NullSink struct {
	acct    *traceio.SizeAccountant
	windows int
}

// NewNullSink returns a size-accounting discard sink.
func NewNullSink() *NullSink {
	return &NullSink{acct: traceio.NewSizeAccountant()}
}

// Record implements Sink.
func (s *NullSink) Record(w window.Window) error {
	for _, ev := range w.Events {
		if err := s.acct.Write(ev); err != nil {
			return err
		}
	}
	s.windows++
	return nil
}

// Close implements Sink.
func (s *NullSink) Close() error { return nil }

// BytesWritten implements Sink.
func (s *NullSink) BytesWritten() int64 { return s.acct.Bytes() }

// WindowsRecorded implements Sink.
func (s *NullSink) WindowsRecorded() int { return s.windows }

// countingWriter counts bytes flowing to an io.Writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// StreamSink writes recorded windows to an io.Writer using the binary trace
// codec, optionally behind DEFLATE compression. With compression the
// reported size is the compressed byte count — what would actually hit the
// storage device.
type StreamSink struct {
	cw      *countingWriter
	flate   *flate.Writer
	bw      *traceio.BinaryWriter
	windows int
	closed  bool
}

// checkCompressLevel rejects a compressLevel NewStreamSink would, before
// anything is created on disk for the sink.
func checkCompressLevel(level int) error {
	if level > flate.BestCompression {
		return fmt.Errorf("recorder: compression level %d out of range (< 0 for none, 0..%d)", level, flate.BestCompression)
	}
	return nil
}

// NewStreamSink creates a sink writing to w. compressLevel < 0 disables
// compression; otherwise it is a flate level (1..9, or 0 for no
// compression but flate framing).
func NewStreamSink(w io.Writer, compressLevel int) (*StreamSink, error) {
	s := &StreamSink{cw: &countingWriter{w: w}}
	var sink io.Writer = s.cw
	if compressLevel >= 0 {
		fw, err := flate.NewWriter(s.cw, compressLevel)
		if err != nil {
			return nil, fmt.Errorf("recorder: creating flate writer: %w", err)
		}
		s.flate = fw
		sink = fw
	}
	bw, err := traceio.NewBinaryWriter(sink)
	if err != nil {
		return nil, err
	}
	s.bw = bw
	return s, nil
}

// Record implements Sink.
func (s *StreamSink) Record(w window.Window) error {
	if s.closed {
		return fmt.Errorf("recorder: record on closed sink")
	}
	for _, ev := range w.Events {
		if err := s.bw.Write(ev); err != nil {
			return err
		}
	}
	s.windows++
	return nil
}

// Close implements Sink. The flate writer is closed even when the codec
// flush fails: a failed Flush must not leak the compressor (and its final
// block) — the first error is reported either way.
func (s *StreamSink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	ferr := s.bw.Flush()
	if s.flate != nil {
		if cerr := s.flate.Close(); ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}

// BytesWritten implements Sink. For exact numbers call after Close (flate
// holds buffered data until then).
func (s *StreamSink) BytesWritten() int64 { return s.cw.n }

// WindowsRecorded implements Sink.
func (s *StreamSink) WindowsRecorded() int { return s.windows }

// ContextSink decorates a Sink with pre- and post-anomaly context: the last
// Pre windows before each recorded window and the Post windows after it are
// recorded too. Debugging a QoS failure usually needs the lead-up, not just
// the anomalous window itself; this is an extension beyond the paper,
// disabled (Pre = Post = 0) in the paper-faithful experiments.
//
// The windows Observe and Record are handed may be lent (core.Run's are):
// the sink records them before returning and keeps only copies, in a
// ring whose buffers it reuses.
type ContextSink struct {
	Pre, Post int // fixed by NewContextSink
	dst       Sink

	ring      *window.Ring // copies of the last windows not yet recorded
	postLeft  int
	lastIndex int // index of the last window recorded, to avoid duplicates
}

// NewContextSink wraps dst with pre/post context counts.
func NewContextSink(dst Sink, pre, post int) *ContextSink {
	if pre < 0 || post < 0 {
		panic(fmt.Sprintf("recorder: negative context pre=%d post=%d", pre, post))
	}
	slots := 0
	if pre > 0 {
		// One extra slot: Observe(w) precedes Record(w) for the anomalous
		// window itself (core.Run's protocol), so w may sit in the ring
		// without counting against the Pre context windows.
		slots = pre + 1
	}
	return &ContextSink{Pre: pre, Post: post, dst: dst, lastIndex: -1, ring: window.NewRing(slots)}
}

// Observe must be called for every window of the stream (recorded or not);
// it maintains the pre-context ring and emits post-context windows.
func (s *ContextSink) Observe(w window.Window) error {
	if s.postLeft > 0 && w.Index > s.lastIndex {
		s.postLeft--
		return s.record(w)
	}
	s.ring.Push(w)
	return nil
}

// Record implements Sink: flushes pre-context, records w, arms post-context.
func (s *ContextSink) Record(w window.Window) error {
	ring := s.ring.Windows()
	pre := ring[:0:0]
	for _, rw := range ring {
		if rw.Index > s.lastIndex && rw.Index < w.Index {
			pre = append(pre, rw)
		}
	}
	if len(pre) > s.Pre {
		pre = pre[len(pre)-s.Pre:]
	}
	for _, rw := range pre {
		if err := s.record(rw); err != nil {
			return err
		}
	}
	s.ring.Reset()
	if err := s.record(w); err != nil {
		return err
	}
	s.postLeft = s.Post
	return nil
}

func (s *ContextSink) record(w window.Window) error {
	if w.Index <= s.lastIndex {
		return nil
	}
	s.lastIndex = w.Index
	return s.dst.Record(w)
}

// Close implements Sink.
func (s *ContextSink) Close() error { return s.dst.Close() }

// BytesWritten implements Sink.
func (s *ContextSink) BytesWritten() int64 { return s.dst.BytesWritten() }

// WindowsRecorded implements Sink.
func (s *ContextSink) WindowsRecorded() int { return s.dst.WindowsRecorded() }
