package serve

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"enduratrace/internal/alert"
	"enduratrace/internal/anomalystore"
)

func TestValidatePrometheusText(t *testing.T) {
	good := strings.Join([]string{
		"# HELP enduratrace_windows_total Windows scored.",
		"# TYPE enduratrace_windows_total counter",
		`enduratrace_windows_total{model="a"} 12`,
		`enduratrace_windows_total{model="b"} 0`,
		`enduratrace_windows_total{model="cam \"3\""} 4`,
		"enduratrace_uptime_seconds 1.25",
		"enduratrace_uptime_seconds 1.25 1690000000",
		"",
	}, "\n")
	n, err := ValidatePrometheusText([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("%d samples, want 5", n)
	}

	bad := []string{
		"{no_name} 1",
		"enduratrace_x{unterminated=\"a 1",
		"enduratrace_x one",
		"enduratrace_x 1 2 3",
		"enduratrace_x",
	}
	for _, line := range bad {
		if _, err := ValidatePrometheusText([]byte(line + "\n")); err == nil {
			t.Errorf("ValidatePrometheusText accepted %q", line)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	cases := map[string]string{
		"plain":      "plain",
		`q"uote`:     `q\"uote`,
		"back\\lash": `back\\lash`,
		"new\nline":  `new\nline`,
	}
	for in, want := range cases {
		if got := escapeLabelValue(in); got != want {
			t.Errorf("escapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestScrapeMatchesFamilies: a daemon with two models, an anomaly store
// and an alert pipeline serves one perturbed stream, and its /metrics,
// fetched over HTTP, declares exactly the rows of the families table with
// their types. Every sample carries exactly its row's label keys, in
// order (plus le on histogram buckets), and every row has a sample. A
// family written outside the table fails here.
func TestScrapeMatchesFamilies(t *testing.T) {
	_, reg := twoModelDir(t)
	store, err := anomalystore.Open(t.TempDir(), anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	alerts := alert.NewPipeline(alert.Options{
		MinTrips:   1,
		ClearAfter: time.Millisecond,
		QueueLen:   4096,
		Sinks:      []alert.Sink{&testAlertSink{}},
	})
	defer alerts.Close()
	rep := selftest(t, selftestOptions{
		Models:    reg,
		Clients:   1,
		Duration:  4 * time.Second,
		Factor:    3,
		Anomalies: store,
		Alerts:    alerts,
	})

	rows := make(map[string]family, len(families))
	wantTypes := make(map[string]string, len(families))
	for _, f := range families {
		rows[f.name] = f
		wantTypes[f.name] = f.typ
	}
	lines := strings.Split(string(rep.Metrics), "\n")
	gotTypes := make(map[string]string)
	for _, line := range lines {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			gotTypes[f[2]] = f[3]
		}
	}
	for name, typ := range gotTypes {
		if wantTypes[name] != typ {
			t.Errorf("scrape declares %s %s, the table %q", name, typ, wantTypes[name])
		}
	}
	for name := range wantTypes {
		if _, ok := gotTypes[name]; !ok {
			t.Errorf("scrape lacks the table's %s", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	samples := make(map[string]int)
	for _, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labelStr := line[:strings.IndexAny(line, "{ ")], ""
		if open := len(name); line[open] == '{' {
			labelStr = line[open+1 : strings.LastIndexByte(line, '}')]
		}
		row, ok := rows[name]
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if h, isHist := rows[strings.TrimSuffix(name, sfx)]; !ok && isHist && h.typ == "histogram" {
				row, ok, suffix = h, true, sfx
			}
		}
		if !ok {
			t.Errorf("sample %q belongs to no family of the table", line)
			continue
		}
		pairs, err := parseLabelPairs(labelStr)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		var keys []string
		for _, p := range pairs {
			keys = append(keys, p[0])
		}
		want := slices.Clone(row.labels)
		if suffix == "_bucket" {
			want = append(want, "le")
		}
		if !slices.Equal(keys, want) {
			t.Errorf("sample %q has label keys %v, its row %v", line, keys, want)
		}
		samples[row.name]++
	}
	for _, f := range families {
		if samples[f.name] == 0 {
			t.Errorf("family %s has no sample", f.name)
		}
	}
}

// TestScrapeAlertStoreFamiliesNeedBoth: the two alert-store families move
// only through the anomaly store's transition hook, which exists only
// with the alert pipeline on, so a daemon with one of the two and not the
// other leaves them out of its scrape: serve -alert-log with no
// -anomaly-store, and -anomaly-store with no alert sink.
func TestScrapeAlertStoreFamiliesNeedBoth(t *testing.T) {
	cfg, learned := fixture(t)
	alerts := alert.NewPipeline(alert.Options{
		Sinks: []alert.Sink{alert.NewSlogSink(slog.New(slog.NewTextHandler(io.Discard, nil)))},
	})
	defer alerts.Close()
	store, err := anomalystore.Open(t.TempDir(), anomalystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, c := range []struct {
		name    string
		opts    Options
		present string
	}{
		{"alerts without a store", Options{Cfg: cfg, Learned: learned, Alerts: alerts}, "enduratrace_alerts_fired_total"},
		{"a store without alerts", Options{Cfg: cfg, Learned: learned, Anomalies: store}, "enduratrace_anomaly_incidents_total"},
	} {
		srv, err := New(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := srv.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "# TYPE "+c.present+" ") {
			t.Errorf("%s: the scrape lacks %s", c.name, c.present)
		}
		for _, absent := range []string{"enduratrace_alert_transitions_persisted_total", "enduratrace_alert_store_errors_total"} {
			if strings.Contains(buf.String(), absent) {
				t.Errorf("%s: the scrape serves %s, which only a store with alerts can move", c.name, absent)
			}
		}
	}
}

// TestCLIDocMetricsTable: the /metrics table of docs/CLI.md lists exactly
// the rows of the families table, in order, with their types and label
// keys, so a family cannot be added, renamed or dropped without its doc.
func TestCLIDocMetricsTable(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "CLI.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `(enduratrace_[a-z0-9_]+)` +\\| ([a-z]+) +\\|([^|]*)\\|")
	var documented, code []string
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		labels := strings.Fields(strings.NewReplacer("`", " ", ",", " ").Replace(m[3]))
		documented = append(documented, fmt.Sprintf("%s %s %v", m[1], m[2], labels))
	}
	for _, f := range families {
		code = append(code, fmt.Sprintf("%s %s %v", f.name, f.typ, f.labels))
	}
	if !slices.Equal(documented, code) {
		t.Fatalf("docs/CLI.md's /metrics table:\n%s\nthe families table:\n%s",
			strings.Join(documented, "\n"), strings.Join(code, "\n"))
	}
}

// ValidatePrometheusText parses a text-format exposition and checks it is
// well-formed: every line must be a comment or a `name{labels} value`
// sample with balanced quotes and a numeric value. Families declared
// `# TYPE <name> histogram` are additionally held to the histogram
// invariants, per label set: bucket counts non-decreasing in le, an
// le="+Inf" bucket present and equal to the family's _count sample, and a
// _sum sample present. It returns the number of samples. Used by the
// loopback tests to assert /metrics stays scrapeable.
func ValidatePrometheusText(body []byte) (samples int, err error) {
	// One histogram series (a family + one label set minus le).
	type histo struct {
		buckets map[float64]float64 // le -> cumulative count
		sum     *float64
		count   *float64
	}
	histFamilies := make(map[string]bool) // declared `# TYPE x histogram`
	series := make(map[string]*histo)
	get := func(key string) *histo {
		h := series[key]
		if h == nil {
			h = &histo{buckets: make(map[float64]float64)}
			series[key] = h
		}
		return h
	}
	// seriesKey joins a histogram family name with its identifying labels
	// (everything but le), order-normalised.
	seriesKey := func(fam string, labels [][2]string) string {
		kv := make([]string, 0, len(labels))
		for _, l := range labels {
			kv = append(kv, l[0]+"="+l[1])
		}
		sort.Strings(kv)
		return fam + "{" + strings.Join(kv, ",") + "}"
	}

	for i, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && f[3] == "histogram" {
				histFamilies[f[2]] = true
			}
			continue
		}
		rest := line
		// Metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
		n := 0
		for n < len(rest) {
			c := rest[n]
			ok := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(n > 0 && c >= '0' && c <= '9')
			if !ok {
				break
			}
			n++
		}
		if n == 0 {
			return samples, fmt.Errorf("line %d: no metric name in %q", i+1, line)
		}
		name := rest[:n]
		rest = rest[n:]
		var labelStr string
		if strings.HasPrefix(rest, "{") {
			end := -1
			inQuote := false
			for j := 1; j < len(rest); j++ {
				switch {
				case inQuote && rest[j] == '\\':
					j++ // skip escaped char
				case rest[j] == '"':
					inQuote = !inQuote
				case !inQuote && rest[j] == '}':
					end = j
				}
				if end >= 0 {
					break
				}
			}
			if end < 0 {
				return samples, fmt.Errorf("line %d: unterminated label set in %q", i+1, line)
			}
			labelStr = rest[1:end]
			rest = rest[end+1:]
		}
		rest = strings.TrimSpace(rest)
		// Value (possibly followed by a timestamp).
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return samples, fmt.Errorf("line %d: want value [timestamp], got %q", i+1, rest)
		}
		value, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return samples, fmt.Errorf("line %d: bad sample value %q", i+1, fields[0])
		}
		samples++

		// Histogram bookkeeping: route _bucket/_sum/_count samples of
		// declared histogram families into their series.
		fam, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, sfx) && histFamilies[strings.TrimSuffix(name, sfx)] {
				fam, suffix = strings.TrimSuffix(name, sfx), sfx
				break
			}
		}
		if suffix == "" {
			continue
		}
		labels, err := parseLabelPairs(labelStr)
		if err != nil {
			return samples, fmt.Errorf("line %d: %v in %q", i+1, err, line)
		}
		switch suffix {
		case "_bucket":
			var le float64
			hasLE := false
			ident := labels[:0:0]
			for _, l := range labels {
				if l[0] == "le" {
					le, err = strconv.ParseFloat(l[1], 64)
					if err != nil {
						return samples, fmt.Errorf("line %d: bad le %q", i+1, l[1])
					}
					hasLE = true
					continue
				}
				ident = append(ident, l)
			}
			if !hasLE {
				return samples, fmt.Errorf("line %d: histogram bucket without le label in %q", i+1, line)
			}
			h := get(seriesKey(fam, ident))
			if _, dup := h.buckets[le]; dup {
				return samples, fmt.Errorf("line %d: duplicate bucket le=%g for %s", i+1, le, fam)
			}
			h.buckets[le] = value
		case "_sum":
			v := value
			get(seriesKey(fam, labels)).sum = &v
		case "_count":
			v := value
			get(seriesKey(fam, labels)).count = &v
		}
	}

	// Per-series histogram invariants.
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		h := series[key]
		if len(h.buckets) == 0 {
			return samples, fmt.Errorf("histogram %s has _sum/_count but no buckets", key)
		}
		les := make([]float64, 0, len(h.buckets))
		for le := range h.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := math.Inf(-1)
		prevCount := 0.0
		for _, le := range les {
			c := h.buckets[le]
			if c < prevCount {
				return samples, fmt.Errorf("histogram %s: bucket le=%g count %g below le=%g count %g (not cumulative)",
					key, le, c, prev, prevCount)
			}
			prev, prevCount = le, c
		}
		inf, ok := h.buckets[math.Inf(1)]
		if !ok {
			return samples, fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", key)
		}
		if h.count == nil {
			return samples, fmt.Errorf("histogram %s has no _count sample", key)
		}
		if *h.count != inf {
			return samples, fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", key, *h.count, inf)
		}
		if h.sum == nil {
			return samples, fmt.Errorf("histogram %s has no _sum sample", key)
		}
	}
	return samples, nil
}

// parseLabelPairs parses the inside of a `{...}` label set into (key,
// value) pairs, handling the exposition-format escapes.
func parseLabelPairs(s string) ([][2]string, error) {
	var out [][2]string
	i := 0
	for i < len(s) {
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return nil, fmt.Errorf("label without '='")
		}
		key := s[i : i+j]
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("label %s: unquoted value", key)
		}
		i++
		var sb strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					sb.WriteByte('\n')
				default:
					sb.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			sb.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", key)
		}
		out = append(out, [2]string{key, sb.String()})
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("junk after label %s", key)
			}
			i++
		}
	}
	return out, nil
}
