package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// reductionString renders the headline reduction metric; a nil factor
// means no window was recorded, where the ratio is undefined.
func reductionString(rf *float64) string {
	if rf == nil {
		return "undefined (no window recorded)"
	}
	return fmt.Sprintf("%.1fx", *rf)
}

// emitJSON writes v, indented, to stdout and (when outPath is non-empty)
// to outPath — the BENCH_*.json convention shared by eval/sweep/replay.
// It encodes once and writes the same bytes to both.
func emitJSON(v any, outPath string) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := os.Stdout.Write(b); err != nil {
		return err
	}
	if outPath == "" {
		return nil
	}
	return os.WriteFile(outPath, b, 0o666)
}
