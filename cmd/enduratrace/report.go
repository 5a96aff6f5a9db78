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
func emitJSON(v any, outPath string) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	if outPath == "" {
		return nil
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	fenc := json.NewEncoder(f)
	fenc.SetIndent("", "  ")
	if err := fenc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
