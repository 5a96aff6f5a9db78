package lint

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden suite: testdata/src is a separate module of deliberately
// broken packages, one per analyzer. Expected findings are `// want "re"`
// comments on the offending lines (multiple regexes per line allowed);
// the regex matches against "analyzer: message". Every finding must be
// wanted and every want must find — asymmetry either way is a failure.
// The badmeta package is the exception: its malformed comments cannot
// carry same-line markers without changing what they parse as, so its
// expectations are the pattern table in TestGoldenSuite.

// TestRepoInvariants runs the whole suite and the zero-alloc gate over the
// module this package belongs to. Every finding, a stale or malformed
// //lint:ignore included, is a test failure, so `go test ./...` holds the
// tree to the same rules as the golden suite holds testdata.
func TestRepoInvariants(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	readModuleDirs(t, root)
	findings, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// readModuleDirs lists every directory `./...` covers. go test caches a
// passing result until a file the test opened changes; the loader opens
// each source file it parses, and listing the directories as well makes
// an added file or package a change too.
func readModuleDirs(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			return filepath.SkipDir // a nested module is outside ./...
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func testdataRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("testdata module missing: %v", err)
	}
	return root
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants scans every .go file under root for `// want "re"` markers.
func collectWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(text[i:], -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", rel, line, m[1], err)
				}
				wants = append(wants, &want{file: rel, line: line, re: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatal("no want markers found in testdata")
	}
	return wants
}

func TestGoldenSuite(t *testing.T) {
	root := testdataRoot(t)
	findings, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, root)
	byPos := make(map[string][]*want)
	for _, w := range wants {
		key := fmt.Sprintf("%s:%d", w.file, w.line)
		byPos[key] = append(byPos[key], w)
	}

	// badmeta's expectations: every finding there must match a pattern,
	// every pattern must match a finding.
	badmetaPatterns := []*regexp.Regexp{
		regexp.MustCompile(`staleignore: .*without a reason`),
		regexp.MustCompile(`staleignore: .*unknown analyzer "gofancy"`),
		regexp.MustCompile(`errsink: sink.Flush error discarded`),
		regexp.MustCompile(`directive: .*zeroalloc takes no arguments`),
		regexp.MustCompile(`directive: .*unknown //enduratrace: directive "frobnicate"`),
	}
	badmetaHits := make([]int, len(badmetaPatterns))

	for _, f := range findings {
		text := f.Analyzer + ": " + f.Message
		if strings.HasPrefix(filepath.ToSlash(f.File), "badmeta/") {
			matched := false
			for i, re := range badmetaPatterns {
				if re.MatchString(text) {
					badmetaHits[i]++
					matched = true
				}
			}
			if !matched {
				t.Errorf("unexpected badmeta finding: %s", f)
			}
			continue
		}
		matched := false
		for _, w := range byPos[fmt.Sprintf("%s:%d", f.File, f.Line)] {
			if w.re.MatchString(text) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q matched no finding", w.file, w.line, w.re)
		}
	}
	for i, n := range badmetaHits {
		if n == 0 {
			t.Errorf("badmeta: pattern %q matched no finding", badmetaPatterns[i])
		}
	}
}

// TestFindingString pins the canonical rendering CI greps for.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "errsink", File: "a/b.go", Line: 3, Col: 9,
		Message: "Sink.Close error discarded", Hint: "check the error"}
	got := f.String()
	want := "a/b.go:3:9: errsink: Sink.Close error discarded (fix: check the error)"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestParseDiag covers the -m diagnostic splitter the zero-alloc gate
// feeds on.
func TestParseDiag(t *testing.T) {
	cases := []struct {
		in   string
		file string
		line int
		ok   bool
	}{
		{"internal/lof/lof.go:240:9: fmt.Sprintf(...) escapes to heap", "internal/lof/lof.go", 240, true},
		{"# enduratrace/internal/lof", "", 0, false},
		{"", "", 0, false},
		{"not a diagnostic", "", 0, false},
	}
	for _, c := range cases {
		file, line, _, _, ok := parseDiag(c.in)
		if ok != c.ok || file != c.file || line != c.line {
			t.Errorf("parseDiag(%q) = %q,%d,%v; want %q,%d,%v", c.in, file, line, ok, c.file, c.line, c.ok)
		}
	}
}

// TestIsHeapEscape: "does not escape" must never read as an escape.
func TestIsHeapEscape(t *testing.T) {
	if isHeapEscape("q does not escape") {
		t.Error("'does not escape' classified as escape")
	}
	if !isHeapEscape("moved to heap: x") || !isHeapEscape("make([]float64, n) escapes to heap") {
		t.Error("real escapes not classified")
	}
}
