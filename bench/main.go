// Command bench is the wire-to-record benchmark of the enduratrace
// daemon: it starts the daemon in-process, drives it over two loopback
// TCP connections from pre-encoded frames, checks what comes out against
// a reference computation, and prints every metric by name and unit. See
// README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// result is one run of one workload, as the last line of standard output
// carries it. Workload, Seed, Seconds and Trace are added in the lines
// -out appends, so that -compare can group them.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	Seconds   float64           `json:"seconds,omitempty"`
	Trace     *int              `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(specNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the simulated traces; stream i replays run seed+1+i")
	seconds := fs.Float64("seconds", 10, "how long each pass offers load; 0 sends exactly one lap")
	traced := fs.Int("trace", 0, "0: the untraced run and the end-to-end metrics; 1: the traced run and the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the layer replay's spans to this file, one JSON object a line")
	out := fs.String("out", "", "append each result to this file, one JSON object a line, for -compare")
	tmp := fs.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for what the daemon under test writes")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments instead of running")
	contract := fs.String("benchmark", "BENCHMARK.json", "with -compare, where the metrics' directions and bounds are read from")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *compare {
		if fs.NArg() != 2 {
			fatal(errors.New("-compare takes two files"))
		}
		ok, err := compareFiles(os.Stdout, *contract, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if fs.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *traced != 0 && *traced != 1 {
		fatal(errors.New("-trace is 0 or 1"))
	}
	if *seconds < 0 || *seconds > 120 {
		fatal(errors.New("-seconds is between 0 and 120"))
	}

	var todo []spec
	if *workload == "all" {
		todo = specs
	} else if sp, ok := specByName(*workload); ok {
		todo = []spec{sp}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	modes := []int{*traced}
	if *workload == "all" {
		modes = []int{0, 1} // one command prints every metric
	}
	allCorrect := true
	for _, sp := range todo {
		for _, mode := range modes {
			res, v, err := runWorkload(sp, *seed, *seconds, mode == 1, *tmp, *spans)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			printResult(os.Stderr, sp.name, mode, res, v)
			line, err := json.Marshal(res)
			if err != nil {
				fatal(err)
			}
			if *out != "" {
				res.Workload, res.Seed, res.Seconds, res.Trace = sp.name, *seed, *seconds, &mode
				if err := appendLine(*out, res); err != nil {
					fatal(err)
				}
			}
			fmt.Printf("%s\n", line)
			allCorrect = allCorrect && res.Correct
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

// runWorkload sets the workload up, runs it untraced or traced, checks
// it, and returns the metrics of that mode with what the checks found.
func runWorkload(sp spec, seed int64, seconds float64, traced bool, tmp, spansPath string) (res *result, v verdict, err error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, verdict{}, err
	}
	dir, err := os.MkdirTemp(tmp, sp.name+"-")
	if err != nil {
		return nil, verdict{}, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
			res, err = nil, rerr
		}
	}()
	in, err := buildInputs(sp, seed, seconds, 1, dir)
	if err != nil {
		return nil, verdict{}, fmt.Errorf("set-up: %w", err)
	}
	fullLap := seconds == 0 && !sp.paced

	plain, err := runPass(in, seconds, filepath.Join(dir, "plain"), false)
	if err != nil {
		return nil, verdict{}, fmt.Errorf("untraced pass: %w", err)
	}
	var values map[string]float64
	defs := endToEndDefs
	if !traced {
		ref, err := replay(in, nil, "")
		if err != nil {
			return nil, verdict{}, fmt.Errorf("reference: %w", err)
		}
		v = checkPass(in, plain, ref, seed, fullLap)
		values = endToEnd(in, plain)
	} else {
		wrapped, err := runPass(in, seconds, filepath.Join(dir, "traced"), true)
		if err != nil {
			return nil, verdict{}, fmt.Errorf("traced pass: %w", err)
		}
		ref, err := replay(in, &tracer{clk: processClock}, dir)
		if err != nil {
			return nil, verdict{}, fmt.Errorf("layer replay: %w", err)
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, ref.spans); err != nil {
				return nil, verdict{}, err
			}
		}
		allocs, err := decodeAllocs(in)
		if err != nil {
			return nil, verdict{}, err
		}
		v = checkPass(in, wrapped, ref, seed, fullLap)
		pv := checkPass(in, plain, ref, seed, fullLap)
		for _, p := range pv.problems {
			v.problemf("untraced pass: %s", p)
		}
		for _, n := range pv.notes {
			v.notef("untraced pass: %s", n)
		}
		v.failed = max(v.failed, pv.failed)
		values = perLayer(in, plain, wrapped, v, ref, allocs)
		defs = perLayerDefs
	}
	metrics, err := withUnits(defs, values)
	if err != nil {
		return nil, verdict{}, err
	}
	return &result{
		Correct:   len(v.problems) == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   metrics,
	}, v, nil
}

// printResult writes the run's metrics by name and unit, for a reader.
func printResult(w io.Writer, workload string, mode int, res *result, v verdict) {
	fmt.Fprintf(w, "%s (trace %d): correct=%v, %d windows attempted, %d failed\n",
		workload, mode, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range v.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	for _, n := range v.notes {
		fmt.Fprintf(w, "  NOTE: %s\n", n)
	}
}

// appendLine appends v to the file at path as one line of JSON.
func appendLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
