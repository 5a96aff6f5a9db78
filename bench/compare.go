package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// contractMetric is one end-to-end metric as BENCHMARK.json declares it.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
}

// readRuns reads a file written by -out and returns the untraced runs'
// values, by workload and metric, in file order.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace == nil || *r.Trace != 0 {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: a %s run that failed its checks cannot be compared", path, n, r.Workload)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// judge compares the runs of one metric on one workload. spread is the
// wider of the two sides' inter-quartile ranges, as a share of its median.
//
//   - better: every run of b beats every run of a, or b's median beats
//     a's by more than a's own spread with both spreads inside the bound;
//   - unresolved: a spread is wider than the bound, so the bound cannot
//     be told from noise;
//   - worse: b's median is worse than a's by more than the bound;
//   - same: otherwise.
func judge(a, b []float64, higherBetter bool, bound float64) (medA, medB, spread float64, verdict string) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	worse := sign * ratio(medB-medA, math.Abs(medA))
	spreadA := ratio(q3a-q1a, math.Abs(medA))
	spread = max(spreadA, ratio(q3b-q1b, math.Abs(medB)))

	sa, sb := sorted(a), sorted(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if higherBetter {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case allBetter:
		verdict = "better"
	case spread > bound:
		verdict = "unresolved"
	case worse > bound:
		verdict = "worse"
	case -worse > spreadA:
		verdict = "better"
	default:
		verdict = "same"
	}
	return medA, medB, spread, verdict
}

// compareFiles prints one row per workload and end-to-end metric for the
// runs in files a and b, and reports whether no row is worse or
// unresolved.
func compareFiles(w io.Writer, contractPath, a, b string) (bool, error) {
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		return false, err
	}
	var c contractFile
	if err := json.Unmarshal(raw, &c); err != nil {
		return false, fmt.Errorf("%s: %w", contractPath, err)
	}
	runsA, err := readRuns(a)
	if err != nil {
		return false, err
	}
	runsB, err := readRuns(b)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tmedian a (n)\tmedian b (n)\tb/a\tspread\tbound\tverdict\n")
	ok := true
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := runsA[wl.Name][m.Name], runsB[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: %d runs in %s, %d in %s", wl.Name, m.Name, len(va), a, len(vb), b)
			}
			medA, medB, spread, verdict := judge(va, vb, m.Better == "higher", m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%.4f of %.6g\t%.4f\t%g\t%s\n",
				wl.Name, m.Name, m.Unit, medA, len(va), medB, len(vb), ratio(medB, medA), medA, spread, m.Bound, verdict)
			if verdict == "worse" || verdict == "unresolved" {
				ok = false
			}
		}
	}
	return ok, tw.Flush()
}
