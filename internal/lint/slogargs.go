package lint

import (
	"go/ast"
	"go/types"
)

// slogargs: log/slog's variadic key/value convention is unchecked at
// compile time — an odd number of trailing args or a non-string key
// silently logs a !BADKEY attribute, so the structured log line that was
// supposed to carry the evidence carries garbage instead. This analyzer
// checks every slog call with a statically known argument list: after
// the message (and level/context, where the variant takes them), args
// must pair up as string-key/value, with slog.Attr values consuming one
// slot. Calls spreading a slice (args...) are skipped — arity is not
// decidable statically.
var analyzerSlogArgs = &Analyzer{
	Name: "slogargs",
	Hint: "add the missing value, or make the key a string (or use slog.Attr)",
	Run:  runSlogArgs,
}

// slogKVStart maps slog function/method names to the index of the first
// key/value argument.
var slogKVStart = map[string]int{
	"Debug": 1, "Info": 1, "Warn": 1, "Error": 1,
	"DebugContext": 2, "InfoContext": 2, "WarnContext": 2, "ErrorContext": 2,
	"Log":   3, // (ctx, level, msg, args...)
	"With":  0,
	"Group": 1,
}

func runSlogArgs(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Ellipsis.IsValid() {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			start, ok := slogKVStart[sel.Sel.Name]
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "log/slog" {
				return true
			}
			if start > len(call.Args) {
				return true // malformed enough for the compiler to own
			}
			args := call.Args[start:]
			for i := 0; i < len(args); {
				if isSlogAttr(info, args[i]) {
					i++
					continue
				}
				if !isStringish(info, args[i]) {
					pass.Reportf(args[i].Pos(), "slog key is %s, not a string (logs as !BADKEY)", typeOf(info, args[i]))
					return true
				}
				if i+1 >= len(args) {
					pass.Reportf(args[i].Pos(), "odd number of slog key/value args: key %s has no value", exprKey(args[i]))
					return true
				}
				i += 2
			}
			return true
		})
	}
}

func isSlogAttr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	n, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "log/slog" && obj.Name() == "Attr"
}

func isStringish(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return true // no type info: give the benefit of the doubt
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func typeOf(info *types.Info, e ast.Expr) string {
	if tv, ok := info.Types[e]; ok {
		return tv.Type.String()
	}
	return "unknown"
}
