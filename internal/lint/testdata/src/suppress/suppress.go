// Package suppress is golden-test input for the suppression machinery
// itself: a working ignore (no finding escapes), an end-of-line ignore,
// and a stale ignore that must be reported.
package suppress

type sink struct{}

func (sink) Flush() error { return nil }

func suppressedAbove(s sink) {
	//lint:ignore errsink golden test: the ignore on the line above suppresses
	s.Flush()
}

func suppressedSameLine(s sink) {
	s.Flush() //lint:ignore errsink golden test: end-of-line ignore suppresses
}

func stale(s sink) error {
	//lint:ignore errsink the discard this excused is long gone // want "staleignore"
	return s.Flush()
}
