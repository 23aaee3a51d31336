package lint

import (
	"go/ast"
	"go/types"
)

// Canonical import paths of the project packages the analyzers reason
// about. The linter is project-specific by design: it encodes this
// module's contracts, not generic Go style.
const (
	pathGeom    = "spatialjoin/internal/geom"
	pathTrace   = "spatialjoin/internal/trace"
	pathPhase   = "spatialjoin/internal/phase"
	pathGovern  = "spatialjoin/internal/govern"
	pathJoinerr = "spatialjoin/internal/joinerr"
	pathDiskio  = "spatialjoin/internal/diskio"
	pathMetrics = "spatialjoin/internal/metrics"
	pathPBSM    = "spatialjoin/internal/pbsm"
)

// parentMap records the immediate parent of every node in a file, the
// minimal structure needed to answer "which blocks enclose this
// statement" without an x/tools inspector.
type parentMap map[ast.Node]ast.Node

func buildParents(f *ast.File) parentMap {
	parents := make(parentMap)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// container returns the innermost statement-list container (block,
// case clause or comm clause) enclosing n.
func (pm parentMap) container(n ast.Node) ast.Node {
	for cur := pm[n]; cur != nil; cur = pm[cur] {
		switch cur.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			return cur
		}
	}
	return nil
}

// containerChain returns every statement-list container enclosing n,
// innermost first, stopping at (and including) the body of the
// enclosing function.
func (pm parentMap) containerChain(n ast.Node) []ast.Node {
	var chain []ast.Node
	for cur := pm[n]; cur != nil; cur = pm[cur] {
		switch cur.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			chain = append(chain, cur)
		case *ast.FuncDecl, *ast.FuncLit:
			return chain
		}
	}
	return chain
}

// funcFor is ast.Inspect restricted to one function body: it walks body
// but does not descend into nested function literals, which have their
// own scopes and are analyzed separately.
func inspectShallow(body ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		return fn(n)
	})
}

// calleeFunc resolves the *types.Func a call invokes, or nil for calls
// through function values, built-ins and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether obj is the package-level function
// pkgPath.name.
func isPkgFunc(obj *types.Func, pkgPath, name string) bool {
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name &&
		obj.Type().(*types.Signature).Recv() == nil
}

// namedType unwraps pointers and aliases and returns the named type
// beneath t, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t is (a pointer to) the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isMethodOn reports whether fn is a method named name whose receiver's
// base type is pkgPath.typeName.
func isMethodOn(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgPath, typeName)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// terminates reports, conservatively, whether stmt never falls through
// to the next statement: returns, panics, and branching statements all
// of whose arms terminate. Used to accept span-closing patterns where
// every path out of a block is an explicit (already-checked) return.
func terminates(info *types.Info, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok.String() == "goto" || s.Tok.String() == "break" || s.Tok.String() == "continue"
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic" && info.Uses[id] == types.Universe.Lookup("panic")
	case *ast.BlockStmt:
		return len(s.List) > 0 && terminates(info, s.List[len(s.List)-1])
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		return terminates(info, s.Body) && terminates(info, s.Else)
	case *ast.SwitchStmt:
		return switchTerminates(info, s.Body)
	case *ast.TypeSwitchStmt:
		return switchTerminates(info, s.Body)
	case *ast.ForStmt:
		// for {} without condition only exits via break/return, which
		// the per-return checks cover.
		return s.Cond == nil
	}
	return false
}

func switchTerminates(info *types.Info, body *ast.BlockStmt) bool {
	hasDefault := false
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			return false
		}
		if cc.List == nil {
			hasDefault = true
		}
		if len(cc.Body) == 0 || !terminates(info, cc.Body[len(cc.Body)-1]) {
			return false
		}
	}
	return hasDefault
}
