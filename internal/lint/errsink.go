package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// errsink: the error results of Write/Flush/Close/Sync on this module's
// own sinks, recorders, stores and frame codecs — and on
// http.ResponseWriter — may not be discarded. This is the PR 6/9
// family: a FileSink.Close that skipped fsync, a StreamSink.Close that
// leaked its flate writer when the buffered flush failed, a writeJSON
// that swallowed the marshal error and served an empty body. Stdlib
// receivers (os.File cleanup on error paths, net.Conn defers) are out
// of scope — the idiomatic `f.Close()` after a failed write, where an
// error is already on its way out, stays legal.
var analyzerErrsink = &Analyzer{
	Name: "errsink",
	Hint: "check the error (log, count or propagate it), or //lint:ignore errsink <why the error is meaningless here>",
	Run:  runErrsink,
}

var errsinkMethods = map[string]bool{
	"Write": true, "Flush": true, "Close": true, "Sync": true,
}

func runErrsink(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = s.Call
			case *ast.GoStmt:
				call = s.Call
			}
			if call == nil {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !errsinkMethods[sel.Sel.Name] {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !returnsError(sig) {
				return true
			}
			if !errsinkReceiverInScope(pass, sig.Recv().Type()) {
				return true
			}
			pass.Reportf(call.Pos(), "%s.%s error discarded", typeShortName(sig.Recv().Type()), fn.Name())
			return true
		})
	}
}

// errsinkReceiverInScope: the receiver is a type declared in this module
// (sinks, recorders, stores, codecs) or the http.ResponseWriter
// interface.
func errsinkReceiverInScope(pass *Pass, recv types.Type) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path == "net/http" && obj.Name() == "ResponseWriter" {
		return true
	}
	return strings.HasPrefix(path, pass.Load.ModulePath)
}

// returnsError reports whether the signature's results include an error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}

func typeShortName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
