package traceio

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"

	"enduratrace/internal/trace"
)

// TextWriter encodes events as CSV lines: ts_ns,type,arg,hex(payload).
// The text codec exists for human inspection and interoperability with
// spreadsheet/gnuplot tooling; size accounting always uses the binary codec.
type TextWriter struct {
	w   *bufio.Writer
	reg *trace.Registry // optional: emit symbolic names
}

// NewTextWriter creates a CSV trace writer. reg may be nil; when provided,
// a fifth column with the symbolic event name is appended.
func NewTextWriter(w io.Writer, reg *trace.Registry) *TextWriter {
	return &TextWriter{w: bufio.NewWriter(w), reg: reg}
}

// Write implements trace.Writer.
func (tw *TextWriter) Write(ev trace.Event) error {
	var err error
	if tw.reg != nil {
		_, err = fmt.Fprintf(tw.w, "%d,%d,%d,%s,%s\n",
			ev.TS.Nanoseconds(), ev.Type, ev.Arg, hex.EncodeToString(ev.Payload), tw.reg.Name(ev.Type))
	} else {
		_, err = fmt.Fprintf(tw.w, "%d,%d,%d,%s\n",
			ev.TS.Nanoseconds(), ev.Type, ev.Arg, hex.EncodeToString(ev.Payload))
	}
	return err
}

// Flush forces buffered bytes out.
func (tw *TextWriter) Flush() error { return tw.w.Flush() }
