package recorder

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// SinkFactory builds one Sink per named stream. The serving layer calls it
// once per accepted trace stream with the registry-assigned stream id, so
// each stream's anomalous windows land in their own sink (file, buffer,
// counter...) instead of interleaving.
type SinkFactory func(streamID string) (Sink, error)

// NullFactory hands every stream its own size-accounting discard sink —
// stat-only serving.
func NullFactory() SinkFactory {
	return func(string) (Sink, error) { return NewNullSink(), nil }
}

// FileSink is a StreamSink bound to a file it owns: Close flushes the
// codec (and compressor) and then closes the file, so a flushed FileSink
// is durable on disk.
type FileSink struct {
	*StreamSink
	f    *os.File
	path string
}

// NewFileSink creates path (truncating) and returns a sink recording to it
// with the binary trace codec; compressLevel as in NewStreamSink. An
// invalid level is refused before path is created.
func NewFileSink(path string, compressLevel int) (*FileSink, error) {
	if err := checkCompressLevel(compressLevel); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	ss, err := NewStreamSink(f, compressLevel)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSink{StreamSink: ss, f: f, path: path}, nil
}

// Path returns the file the sink records to.
func (s *FileSink) Path() string { return s.path }

// Close implements Sink: flushes the stream sink, fsyncs, then closes the
// file. Without the Sync the flushed bytes only reach the page cache and
// "durable on disk" would be a lie a power cut exposes.
func (s *FileSink) Close() error {
	serr := s.StreamSink.Close()
	yerr := s.f.Sync()
	ferr := s.f.Close()
	if serr != nil {
		return serr
	}
	if yerr != nil {
		return yerr
	}
	return ferr
}

// Sync flushes the codec and compressor and forces everything written so
// far to stable storage, leaving the sink open for further records.
func (s *FileSink) Sync() error {
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if s.flate != nil {
		if err := s.flate.Flush(); err != nil {
			return err
		}
	}
	return s.f.Sync()
}

// SanitizeStreamID maps an arbitrary stream id onto a safe filename
// component: path separators and control characters become '_', and an id
// that sanitises to nothing becomes "stream".
func SanitizeStreamID(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	out := strings.Trim(b.String(), ".")
	if out == "" {
		return "stream"
	}
	return out
}

// NewDirFactory returns a factory recording each stream to
// <dir>/<sanitized-id>.etrc (".etrc.fz" when compressed). The directory is
// created if missing; a second stream sanitising to the same filename gets
// a numeric suffix rather than clobbering the first. An invalid
// compressLevel is refused here, before dir is created.
func NewDirFactory(dir string, compressLevel int) (SinkFactory, error) {
	if err := checkCompressLevel(compressLevel); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ext := ".etrc"
	if compressLevel >= 0 {
		ext = ".etrc.fz"
	}
	var mu sync.Mutex // streams are accepted concurrently
	used := make(map[string]int)
	return func(streamID string) (Sink, error) {
		base := SanitizeStreamID(streamID)
		mu.Lock()
		n := used[base]
		used[base] = n + 1
		mu.Unlock()
		name := base + ext
		if n > 0 {
			name = fmt.Sprintf("%s.%d%s", base, n, ext)
		}
		return NewFileSink(filepath.Join(dir, name), compressLevel)
	}, nil
}
