package lint

import (
	"go/ast"
)

// AnalyzerJoinwrap enforces the joinerr contract at the API boundary of
// the join packages: an exported function or method of pbsm, s3j, sssj,
// shj, stripe, extsort or core must not hand a bare fmt.Errorf or
// errors.New value to its caller. Those constructors carry no Method,
// Phase or Kind, so a server embedding the library cannot route the
// failure (retry? surface? back off?) the way the joinerr taxonomy
// promises.
//
// The check is syntactic at the return site but type-accurate on the
// callee: it flags fmt.Errorf / errors.New calls appearing directly as
// a result in a return statement of an exported function (or exported
// method on an exported type). Errors built by unexported helpers are
// accepted — the boundary function is expected to wrap them via
// joinerr.Wrap/WrapAs, which also satisfies this check when the
// constructor call is nested inside the wrapper's argument list.
var AnalyzerJoinwrap = &Analyzer{
	Name: "joinwrap",
	Doc:  "errors returned across a join package's API boundary must be joinerr values, not bare fmt.Errorf/errors.New",
	Run:  runJoinwrap,
}

func runJoinwrap(p *Pass) {
	if !isJoinPackage(p.Pkg) {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isExportedBoundary(fd) {
				continue
			}
			// Nested function literals are skipped: closures deliver
			// their errors through captured state the enclosing
			// boundary wraps (see the pbsm parallel workers).
			inspectShallow(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range ret.Results {
					call, ok := ast.Unparen(res).(*ast.CallExpr)
					if !ok {
						continue
					}
					fn := calleeFunc(p.Info, call)
					switch {
					case isPkgFunc(fn, "fmt", "Errorf"):
						p.Reportf(call.Pos(),
							"%s returns a bare fmt.Errorf across the %s API boundary; wrap it with joinerr so callers get Method/Phase/Kind",
							fd.Name.Name, p.Pkg.Name())
					case isPkgFunc(fn, "errors", "New"):
						p.Reportf(call.Pos(),
							"%s returns a bare errors.New across the %s API boundary; wrap it with joinerr so callers get Method/Phase/Kind",
							fd.Name.Name, p.Pkg.Name())
					}
				}
				return true
			})
		}
	}
}

// isExportedBoundary reports whether fd is part of the package's API:
// an exported top-level function, or an exported method whose receiver
// type is itself exported.
func isExportedBoundary(fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
		recv = idx.X
	}
	id, ok := recv.(*ast.Ident)
	return ok && id.IsExported()
}
