//go:build !race

package alert

// raceEnabled reports whether the race detector is compiled in; the
// allocation assertions are skipped under instrumentation.
const raceEnabled = false
