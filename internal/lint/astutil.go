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

// inspectShallow is ast.Inspect restricted to one function body: it walks body
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
