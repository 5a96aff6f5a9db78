package lint

import (
	"go/ast"
	"go/types"
)

// counterlock: writes to struct fields annotated
// `//enduratrace:guarded-by <mutex>` must happen while that mutex is
// held in the enclosing function. This is the PR 5 books race: the
// eventQueue's scored counter was bumped after the unlock, so a
// concurrent /stats read could catch an event that had left the buffer
// but was counted nowhere.
//
// The analysis is a branch-aware source-order scan of each function
// body, not a full dataflow analysis: `mu.Lock()` marks the mutex held
// for the base expression it was called on (matched textually, e.g. `q`
// in `q.mu.Lock()`), `mu.Unlock()` clears it, `defer mu.Unlock()` keeps
// it held to the end of the function, and branches that terminate
// (return/break/continue/panic) do not leak their lock-state changes
// past the branch. Function literals are scanned separately with an
// empty lock set — a goroutine does not inherit its creator's locks.
// Writes counted: assignments, ++/--, map-index writes through the
// field, and Add/Store/Swap/CompareAndSwap calls on atomic-typed fields.
var analyzerCounterlock = &Analyzer{
	Name: "counterlock",
	Hint: "move the write inside the mu.Lock()/Unlock() critical section, or //lint:ignore counterlock <why the caller holds it>",
	Run:  runCounterlock,
}

// guardInfo is one annotated field: the sibling mutex field name that
// must be held when the field is written.
type guardInfo struct {
	mutex string
}

func runCounterlock(pass *Pass) {
	// Pass 1: collect annotated fields (field object -> guard) and
	// validate that the named mutex is a sibling field of the struct.
	guards := make(map[*types.Var]guardInfo)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				mutex, ok := fieldDirective(fld)
				if !ok {
					continue
				}
				if !fieldNames[mutex] {
					pass.Reportf(fld.Pos(), "guarded-by names %q, which is not a field of this struct", mutex)
					continue
				}
				for _, name := range fld.Names {
					if obj, ok := pass.Pkg.Info.Defs[name].(*types.Var); ok {
						guards[obj] = guardInfo{mutex: mutex}
					}
				}
			}
			return true
		})
	}
	if len(guards) == 0 {
		return
	}

	// Pass 2: scan every function body (and every function literal,
	// each with a fresh lock set).
	sc := &lockScan{pass: pass, guards: guards}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					sc.stmts(fn.Body.List, make(lockSet))
				}
				return false // nested FuncLits are visited by the scan itself
			case *ast.FuncLit:
				// A FuncLit outside any FuncDecl (package-level var).
				sc.stmts(fn.Body.List, make(lockSet))
				return false
			}
			return true
		})
	}
}

// lockSet tracks which mutexes are held, keyed "<baseExpr>.<mutexField>"
// (e.g. "q.mu", "h.reg.mu").
type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// intersect keeps only the locks held in both sets.
func intersect(a, b lockSet) lockSet {
	out := make(lockSet)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

type lockScan struct {
	pass   *Pass
	guards map[*types.Var]guardInfo
}

// stmts scans a statement list in source order, mutating and returning
// the lock state that holds after the list.
func (sc *lockScan) stmts(list []ast.Stmt, held lockSet) lockSet {
	for _, st := range list {
		held = sc.stmt(st, held)
	}
	return held
}

func (sc *lockScan) stmt(st ast.Stmt, held lockSet) lockSet {
	switch s := st.(type) {
	case *ast.ExprStmt:
		sc.expr(s.X, held, false)
	case *ast.SendStmt:
		sc.expr(s.Chan, held, false)
		sc.expr(s.Value, held, false)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			sc.expr(rhs, held, false)
		}
		for _, lhs := range s.Lhs {
			sc.expr(lhs, held, true)
		}
	case *ast.IncDecStmt:
		sc.expr(s.X, held, true)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the mutex held to the end of the
		// function; any other deferred call is scanned for writes with
		// the *current* state (a heuristic — deferred bodies run last,
		// but deferring an unguarded write is vanishingly rare).
		if key, op := sc.lockOp(s.Call); op == "Unlock" || op == "RUnlock" {
			_ = key // held stays held
		} else {
			sc.expr(s.Call, held, false)
		}
	case *ast.GoStmt:
		sc.expr(s.Call, make(lockSet), false)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			sc.expr(r, held, false)
		}
	case *ast.BlockStmt:
		held = sc.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = sc.stmt(s.Init, held)
		}
		sc.expr(s.Cond, held, false)
		bodyHeld := sc.stmts(s.Body.List, held.clone())
		bodyTerm := terminates(s.Body)
		if s.Else == nil {
			if !bodyTerm {
				held = intersect(held, bodyHeld)
			}
			// A terminating then-branch (early return) leaks nothing.
			return held
		}
		elseHeld := sc.stmt(s.Else, held.clone())
		elseTerm := stmtTerminates(s.Else)
		switch {
		case bodyTerm && elseTerm:
			return held // unreachable after; state is moot
		case bodyTerm:
			return elseHeld
		case elseTerm:
			return bodyHeld
		default:
			return intersect(bodyHeld, elseHeld)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = sc.stmt(s.Init, held)
		}
		if s.Cond != nil {
			sc.expr(s.Cond, held, false)
		}
		bodyHeld := sc.stmts(s.Body.List, held.clone())
		if s.Post != nil {
			bodyHeld = sc.stmt(s.Post, bodyHeld)
		}
		return intersect(held, bodyHeld) // the loop may run zero times
	case *ast.RangeStmt:
		sc.expr(s.X, held, false)
		bodyHeld := sc.stmts(s.Body.List, held.clone())
		return intersect(held, bodyHeld)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses []ast.Stmt
		switch sw := st.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				held = sc.stmt(sw.Init, held)
			}
			if sw.Tag != nil {
				sc.expr(sw.Tag, held, false)
			}
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		out := held
		for _, cl := range clauses {
			var body []ast.Stmt
			switch c := cl.(type) {
			case *ast.CaseClause:
				body = c.Body
			case *ast.CommClause:
				if c.Comm != nil {
					sc.stmt(c.Comm, held.clone())
				}
				body = c.Body
			}
			clHeld := sc.stmts(body, held.clone())
			if !blockTerminates(body) {
				out = intersect(out, clHeld)
			}
		}
		return out
	case *ast.LabeledStmt:
		return sc.stmt(s.Stmt, held)
	}
	return held
}

// expr walks an expression: toggles lock state on Lock/Unlock calls,
// checks guarded-field accesses when write is set, and recurses. FuncLit
// bodies are scanned with a fresh lock set.
func (sc *lockScan) expr(e ast.Expr, held lockSet, write bool) {
	switch x := e.(type) {
	case *ast.CallExpr:
		if key, op := sc.lockOp(x); key != "" {
			switch op {
			case "Lock", "RLock":
				held[key] = true
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		// Atomic mutation through a guarded field: q.counter.Add(1).
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Add", "Store", "Swap", "CompareAndSwap":
				if inner, ok := sel.X.(*ast.SelectorExpr); ok {
					sc.checkAccess(inner, held)
				}
			}
		}
		sc.expr(x.Fun, held, false)
		for _, arg := range x.Args {
			sc.expr(arg, held, false)
		}
	case *ast.FuncLit:
		sc.stmts(x.Body.List, make(lockSet))
	case *ast.SelectorExpr:
		if write {
			sc.checkAccess(x, held)
		}
		sc.expr(x.X, held, false)
	case *ast.IndexExpr:
		// Writing through a map/slice field: q.byName[k] = v.
		if sel, ok := x.X.(*ast.SelectorExpr); ok && write {
			sc.checkAccess(sel, held)
		}
		sc.expr(x.X, held, false)
		sc.expr(x.Index, held, false)
	case *ast.StarExpr:
		sc.expr(x.X, held, write)
	case *ast.ParenExpr:
		sc.expr(x.X, held, write)
	case *ast.UnaryExpr:
		sc.expr(x.X, held, false)
	case *ast.BinaryExpr:
		sc.expr(x.X, held, false)
		sc.expr(x.Y, held, false)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			sc.expr(el, held, false)
		}
	case *ast.KeyValueExpr:
		sc.expr(x.Value, held, false)
	case *ast.TypeAssertExpr:
		sc.expr(x.X, held, false)
	case *ast.SliceExpr:
		sc.expr(x.X, held, false)
	}
}

// checkAccess reports a write to a guarded field when its mutex is not
// held.
func (sc *lockScan) checkAccess(sel *ast.SelectorExpr, held lockSet) {
	selection, ok := sc.pass.Pkg.Info.Selections[sel]
	if !ok {
		return
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	g, ok := sc.guards[v]
	if !ok {
		return
	}
	key := exprKey(sel.X) + "." + g.mutex
	if !held[key] {
		sc.pass.Reportf(sel.Pos(), "write to %s outside %s (field is //enduratrace:guarded-by %s)",
			v.Name(), key+".Lock()", g.mutex)
	}
}

// lockOp recognises <base>.<mutexField>.Lock/Unlock/RLock/RUnlock calls,
// returning the lock-set key and the operation.
func (sc *lockScan) lockOp(call *ast.CallExpr) (key, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	// The receiver must be a sync.Mutex/RWMutex-typed expression; its
	// textual form is the key.
	tv, ok := sc.pass.Pkg.Info.Types[sel.X]
	if !ok || !isMutexType(tv.Type) {
		return "", ""
	}
	return exprKey(sel.X), sel.Sel.Name
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// exprKey renders the textual form of a lock/field base expression:
// idents and dotted selector chains ("q", "h.reg"). Anything more
// exotic renders to a position-independent best effort.
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprKey(x.X)
	case *ast.StarExpr:
		return exprKey(x.X)
	default:
		return "?"
	}
}

// terminates reports whether a block always transfers control out
// (return, break/continue/goto, panic, os.Exit).
func terminates(b *ast.BlockStmt) bool { return blockTerminates(b.List) }

func blockTerminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return stmtTerminates(list[len(list)-1])
}

func stmtTerminates(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok {
					return id.Name == "os" && fun.Sel.Name == "Exit"
				}
			}
		}
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.IfStmt:
		return terminates(s.Body) && s.Else != nil && stmtTerminates(s.Else)
	case *ast.LabeledStmt:
		return stmtTerminates(s.Stmt)
	}
	return false
}
