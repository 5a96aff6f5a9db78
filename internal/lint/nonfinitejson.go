package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// nonfinitejson: encoding/json refuses non-finite float64 values
// (json.Marshal returns an error on NaN/±Inf), and this repo's gate
// distances are legitimately +Inf on disjoint distributions — the PR 9
// bug served an empty /alerts body because a +Inf GateDist aborted the
// marshal inside an error-swallowing writeJSON. Every float64 struct
// field statically reachable from a json.Marshal / Encoder.Encode call
// site in the serving-side packages must therefore be a type with a
// non-finite-safe MarshalJSON (anomalystore.JSONFloat) or a *float64
// null-for-non-finite shadow.
//
// Reachability is a type walk from the static type of each marshal
// argument: struct fields (exported, not json:"-"), slice/array/map
// elements and pointers are followed; named types carrying their own
// MarshalJSON are trusted and not entered, and embedded-field shadowing
// is modelled the way encoding/json resolves it (an outer field hides
// the promoted field of the same JSON name — the `type plain T` shadow
// idiom). Marshal sites lexically inside a MarshalJSON method are not
// walked: the method is the type's non-finite story, the same trust the
// walk extends to it from outside. One level of wrapper indirection is
// resolved: a function whose parameter flows into json.Marshal
// (writeJSON) turns its own call sites into marshal sites. Findings are
// reported at the offending field's declaration, naming one marshal
// site that reaches it.
var analyzerNonfiniteJSON = &Analyzer{
	Name: "nonfinitejson",
	Hint: "use anomalystore.JSONFloat, a *float64 null shadow, or a custom MarshalJSON",
	Run:  runNonfiniteJSON,
}

// nonfiniteScopeSuffixes: the packages whose marshal call sites seed the
// walk — the serving-side JSON producers.
var nonfiniteScopeSuffixes = []string{
	"/internal/serve",
	"/internal/alert",
	"/internal/anomalystore",
	"lint/testdata/src/nonfinitejson",
}

func runNonfiniteJSON(pass *Pass) {
	if !pathHasSuffix(pass.Pkg.Path, nonfiniteScopeSuffixes) {
		return
	}
	info := pass.Pkg.Info

	// Wrapper detection: package functions with a parameter that is
	// passed (as a bare identifier) to json.Marshal/MarshalIndent or
	// Encoder.Encode inside the body. Maps the function object to the
	// index of that parameter.
	wrappers := make(map[types.Object]int)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Type.Params == nil {
				continue
			}
			paramIdx := make(map[types.Object]int)
			i := 0
			for _, fld := range fn.Type.Params.List {
				for _, name := range fld.Names {
					if obj := info.Defs[name]; obj != nil {
						paramIdx[obj] = i
					}
					i++
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isMarshalCall(info, call) || len(call.Args) == 0 {
					return true
				}
				if id, ok := call.Args[0].(*ast.Ident); ok {
					if idx, ok := paramIdx[info.Uses[id]]; ok {
						wrappers[info.Defs[fn.Name]] = idx
					}
				}
				return true
			})
		}
	}

	w := &jsonWalk{
		pass:      pass,
		seenType:  make(map[types.Type]bool),
		seenField: make(map[*types.Var]bool),
		seenSite:  make(map[token.Pos]bool),
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "MarshalJSON" {
				// The method owns its type's non-finite handling; its
				// internal marshal calls are the implementation of that
				// handling, not a leak.
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var root ast.Expr
				switch {
				case isMarshalCall(info, call) && len(call.Args) > 0:
					root = call.Args[0]
				default:
					// A call to a detected wrapper (writeJSON(w, status, v)).
					var callee types.Object
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						callee = info.Uses[fun]
					case *ast.SelectorExpr:
						callee = info.Uses[fun.Sel]
					}
					if idx, ok := wrappers[callee]; ok && idx < len(call.Args) {
						root = call.Args[idx]
					}
				}
				if root == nil {
					return true
				}
				tv, ok := info.Types[root]
				if !ok {
					return true
				}
				w.site = pass.Load.Fset.Position(call.Pos())
				w.walk(tv.Type, call.Pos())
				return true
			})
		}
	}
}

// isMarshalCall recognises json.Marshal, json.MarshalIndent and
// (*json.Encoder).Encode from encoding/json.
func isMarshalCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "encoding/json" {
		return false
	}
	switch obj.Name() {
	case "Marshal", "MarshalIndent", "Encode":
		return true
	}
	return false
}

type jsonWalk struct {
	pass      *Pass
	site      token.Position
	seenType  map[types.Type]bool
	seenField map[*types.Var]bool
	seenSite  map[token.Pos]bool
}

// walk descends the type reachable from a marshal site. callPos is used
// only when the root itself is a bare float (no field to anchor to).
func (w *jsonWalk) walk(t types.Type, callPos token.Pos) {
	w.walkShadowed(t, callPos, nil)
}

// walkShadowed is walk with the set of JSON field names already claimed
// by an outer embedding level: encoding/json resolves name conflicts in
// favour of the shallower field, so a promoted float64 hidden by an
// outer jsonFloat of the same name is never marshalled.
func (w *jsonWalk) walkShadowed(t types.Type, callPos token.Pos, shadowed map[string]bool) {
	if w.seenType[t] {
		return
	}
	w.seenType[t] = true
	defer delete(w.seenType, t) // per-root cycle guard, not a global memo

	if hasMarshalJSON(t) {
		return // custom marshaller owns its non-finite story
	}
	if isFloat(t) {
		if !w.seenSite[callPos] {
			w.seenSite[callPos] = true
			w.pass.Reportf(callPos, "float64 value marshalled directly at %s — non-finite values make json.Marshal fail", w.site)
		}
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if isFloat(u.Elem()) {
			return // the blessed null-for-non-finite shadow shape
		}
		w.walkShadowed(u.Elem(), callPos, shadowed)
	case *types.Slice:
		w.walkShadowed(u.Elem(), callPos, nil)
	case *types.Array:
		w.walkShadowed(u.Elem(), callPos, nil)
	case *types.Map:
		w.walkShadowed(u.Elem(), callPos, nil)
	case *types.Struct:
		// Names claimed at this level shadow same-named promoted fields
		// of the embedded structs one level down.
		claimed := make(map[string]bool)
		for i := 0; i < u.NumFields(); i++ {
			fld := u.Field(i)
			if fld.Embedded() || !fld.Exported() || tagName(u.Tag(i)) == "-" {
				continue
			}
			claimed[jsonFieldName(fld, u.Tag(i))] = true
		}
		for k := range shadowed {
			claimed[k] = true
		}
		for i := 0; i < u.NumFields(); i++ {
			fld := u.Field(i)
			if tagName(u.Tag(i)) == "-" {
				continue
			}
			if fld.Embedded() {
				w.walkShadowed(fld.Type(), callPos, claimed)
				continue
			}
			if !fld.Exported() || shadowed[jsonFieldName(fld, u.Tag(i))] {
				continue
			}
			ft := fld.Type()
			if isFloat(ft) && !hasMarshalJSON(ft) {
				if !w.seenField[fld] {
					w.seenField[fld] = true
					w.pass.Reportf(fld.Pos(), "float64 field %s is reachable from json.Marshal at %s — non-finite values make the whole marshal fail",
						fld.Name(), w.site)
				}
				continue
			}
			w.walkShadowed(ft, callPos, nil)
		}
	}
}

// jsonFieldName is the name encoding/json marshals the field under.
func jsonFieldName(fld *types.Var, tag string) string {
	if n := tagName(tag); n != "" {
		return n
	}
	return fld.Name()
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Float64 || b.Kind() == types.Float32)
}

// hasMarshalJSON reports whether *T or T has a MarshalJSON method.
func hasMarshalJSON(t types.Type) bool {
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(tt, true, nil, "MarshalJSON")
		if _, ok := obj.(*types.Func); ok {
			return true
		}
	}
	return false
}

// tagName extracts the name part of a json struct tag ("-", "foo", ...).
func tagName(tag string) string {
	v, ok := lookupTag(tag, "json")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(v, ','); i >= 0 {
		v = v[:i]
	}
	return v
}

// lookupTag is reflect.StructTag.Lookup without importing reflect into
// the analysis (struct tags here are already raw strings).
func lookupTag(tag, key string) (string, bool) {
	for tag != "" {
		i := 0
		for i < len(tag) && tag[i] == ' ' {
			i++
		}
		tag = tag[i:]
		if tag == "" {
			break
		}
		i = 0
		for i < len(tag) && tag[i] > ' ' && tag[i] != ':' && tag[i] != '"' && tag[i] != 0x7f {
			i++
		}
		if i == 0 || i+1 >= len(tag) || tag[i] != ':' || tag[i+1] != '"' {
			break
		}
		name := tag[:i]
		tag = tag[i+1:]
		i = 1
		for i < len(tag) && tag[i] != '"' {
			if tag[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(tag) {
			break
		}
		qvalue := tag[:i+1]
		tag = tag[i+1:]
		if key == name {
			return strings.Trim(qvalue, `"`), true
		}
	}
	return "", false
}

// pathHasSuffix reports whether pkgPath ends with (or contains, for the
// testdata mirrors) one of the scope suffixes.
func pathHasSuffix(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}
