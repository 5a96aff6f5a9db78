// Package badmeta is golden-test input for the comment grammars: ignores
// and directives that do not parse. Expectations live in the lint test
// (not in want comments) because a malformed comment cannot also carry a
// marker without changing what it parses as.
package badmeta

type sink struct{}

func (sink) Flush() error { return nil }

func reasonless(s sink) {
	//lint:ignore errsink
	s.Flush()
}

func unknownAnalyzer(s sink) {
	//lint:ignore gofancy not a real analyzer name
	s.Flush()
}

//enduratrace:zeroalloc please
func withArgument() {}

//enduratrace:frobnicate
func unknownDirective() {}
