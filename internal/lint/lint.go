// Package lint is the repo-invariant static-analysis suite: two
// analyzers for bug classes this codebase has shipped and its tests do not
// catch (wall-clock reads on monotonic hot paths, swallowed sink errors),
// plus a compiler-backed zero-alloc gate that verifies functions annotated
// `//enduratrace:zeroalloc` against `go build -gcflags=-m` escape-analysis
// output. A bug class the tests catch is left to the tests: lock
// discipline to the race audits under -race, non-finite JSON floats to
// the admin routes' wire test (DESIGN.md "Static analysis").
//
// Findings are suppressible with a `//lint:ignore <analyzer> <reason>`
// comment on the flagged line or the line directly above it. Ignores are
// validated: one that suppresses nothing is itself reported (staleignore),
// so suppressions cannot outlive the code they excuse.
//
// TestRepoInvariants runs the whole suite and the gate over the module,
// so `go test ./...` fails on any finding.
//
// The suite is stdlib-only (go/parser, go/types, go/importer); the only
// external requirement is the go toolchain on PATH, which the loader
// uses for export data and the zero-alloc gate uses for escape analysis.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// A Finding is one rule violation: analyzer name, position, a one-line
// message, and a one-line fix hint.
type Finding struct {
	Analyzer string
	File     string // root-relative
	Line     int
	Col      int
	Message  string
	Hint     string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// An Analyzer is one named rule: Run inspects a package and reports
// findings through the pass.
type Analyzer struct {
	Name string
	Hint string // default fix hint attached to findings
	Run  func(*Pass)
}

// Pass is one (analyzer, package) execution context.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Load     *Load

	runner *runner
}

// Reportf records a finding at pos unless an ignore comment suppresses
// it. The message should state the defect; the analyzer's Hint says how
// to fix it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.runner.report(p.Analyzer.Name, p.Analyzer.Hint, p.Load.Fset.Position(pos), fmt.Sprintf(format, args...))
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerMonotime,
		analyzerErrsink,
	}
}

// runner carries the shared per-run state: the ignore index and the
// accumulated findings.
type runner struct {
	load     *Load
	ignores  *ignoreIndex
	findings []Finding
}

// report records a finding unless an ignore comment suppresses it.
func (r *runner) report(analyzer, hint string, pos token.Position, msg string) {
	if r.ignores.suppress(analyzer, pos) {
		return
	}
	r.add(analyzer, hint, pos, msg)
}

// add records a finding that no ignore comment can suppress.
func (r *runner) add(analyzer, hint string, pos token.Position, msg string) {
	r.findings = append(r.findings, Finding{
		Analyzer: analyzer,
		File:     relPath(r.load.Root, pos.Filename),
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  msg,
		Hint:     hint,
	})
}

// Run loads the packages matched by patterns under root and runs the
// whole analyzer suite and the escape-analysis gate over them. The
// returned findings are sorted by file, line and analyzer; an empty slice
// means the tree is clean.
func Run(root string, patterns []string) ([]Finding, error) {
	load, err := LoadPackages(root, patterns)
	if err != nil {
		return nil, err
	}
	r := &runner{load: load, ignores: collectIgnores(load)}

	// Malformed ignore comments are findings in their own right, reported
	// before any analyzer runs so a broken suppression never silently
	// matches nothing.
	for _, bad := range r.ignores.malformed {
		r.add("staleignore", "write //lint:ignore <analyzer> <reason>", bad.pos, bad.msg)
	}
	// Unknown annotation directives (//enduratrace:<something else>) are
	// validated here too: the grammar has exactly one production.
	validateDirectives(load, r)

	for _, pkg := range load.Pkgs {
		for _, a := range All() {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Load: load, runner: r})
		}
	}
	if err := runZeroAlloc(load, r); err != nil {
		return nil, err
	}

	// Stale-ignore validation: every ignore must have suppressed at least
	// one finding this run.
	for _, ig := range r.ignores.all {
		if !ig.used {
			r.add("staleignore", "delete the stale ignore comment", ig.pos,
				fmt.Sprintf("//lint:ignore %s suppresses nothing — the violation it excused is gone", ig.analyzer))
		}
	}

	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return r.findings, nil
}

func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}
