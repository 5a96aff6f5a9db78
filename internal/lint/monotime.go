package lint

import (
	"go/ast"
	"slices"
	"strings"
)

// monotime: time.Now() is forbidden in the hot-path packages — the
// pipeline's timestamp currency is obs.Now() (monotonic nanoseconds
// since process start), which is immune to wall-clock steps and keeps
// per-event metadata flat. A stray time.Now() in a scoring or queue
// path both allocates nothing *visible* and silently re-introduces
// wall-clock skew into latency math (the PR 7 family). Legitimately
// wall-clock sites — net deadlines, displayed timestamps, incident
// Wall fields — carry a validated //lint:ignore monotime <reason>.
var analyzerMonotime = &Analyzer{
	Name: "monotime",
	Hint: "use obs.Now() for monotonic pipeline time, or //lint:ignore monotime <why wall clock is required>",
	Run:  runMonotime,
}

// monotimeScopeSuffixes: the packages where wall-clock reads are
// quarantined. obs itself is included — its only time.Now() is the
// monotonic epoch, under a validated ignore.
var monotimeScopeSuffixes = []string{
	"/internal/lof",
	"/internal/distance",
	"/internal/pmf",
	"/internal/obs",
	"/internal/core",
	"/internal/serve",
	"lint/testdata/src/monotime",
}

func runMonotime(pass *Pass) {
	if !slices.ContainsFunc(monotimeScopeSuffixes, func(s string) bool { return strings.HasSuffix(pass.Pkg.Path, s) }) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if obj.Pkg().Path() == "time" && obj.Name() == "Now" {
				pass.Reportf(call.Pos(), "time.Now() in hot-path package %s", shortPkg(pass.Pkg.Path))
			}
			return true
		})
	}
}

func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
