package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerCheckpoint keeps cancellation latency bounded: a loop over
// records — a range over a []geom.KPE or []geom.Pair — inside a join
// package must contain a govern checkpoint, either directly (a
// Check.Now or Stride.Point call) or by delegating to a helper
// that receives a *govern.Check or govern.Stride. Record loops are the
// unbounded hot paths; a new one without a checkpoint would regress the
// stack's cancellation-latency budget silently.
var AnalyzerCheckpoint = &Analyzer{
	Name: "checkpoint",
	Doc:  "record loops (range over []geom.KPE / []geom.Pair) in join packages must contain a govern.Check/Stride checkpoint",
	Run:  runCheckpoint,
}

func runCheckpoint(p *Pass) {
	if !isJoinPackage(p.Pkg) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rng.X]
			if !ok || !isRecordSlice(tv.Type) {
				return true
			}
			if !hasCheckpoint(p.Info, rng.Body) {
				p.Reportf(rng.Pos(),
					"record loop over %s has no govern checkpoint; call Check.Now or Stride.Point in the body (or pass one to a helper) so cancellation latency stays bounded",
					types.TypeString(tv.Type, func(pkg *types.Package) string { return pkg.Name() }))
			}
			return true
		})
	}
}

// isRecordSlice reports whether t is a slice (or array) of geom.KPE or
// geom.Pair — the two record types whose collections scale with the
// input.
func isRecordSlice(t types.Type) bool {
	var elem types.Type
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	case *types.Pointer: // range over *[N]T
		if arr, ok := types.Unalias(u.Elem()).Underlying().(*types.Array); ok {
			elem = arr.Elem()
		}
	}
	if elem == nil {
		return false
	}
	return isNamed(elem, pathGeom, "KPE") || isNamed(elem, pathGeom, "Pair")
}

// hasCheckpoint reports whether body contains a checkpoint: a method
// call on govern.Check/Stride, or any call that hands a Check/Stride to
// a helper. Nested function literals count — a per-record closure that
// polls is a checkpoint wherever it is declared.
func hasCheckpoint(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil {
			if isMethodOn(fn, pathGovern, "Check", "Now") ||
				isMethodOn(fn, pathGovern, "Stride", "Point") {
				found = true
				return false
			}
		}
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && isGovernValue(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isGovernValue(t types.Type) bool {
	return isNamed(t, pathGovern, "Check") || isNamed(t, pathGovern, "Stride")
}
