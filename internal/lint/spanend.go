package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerSpanend enforces the paired-span contract of the trace layer:
// every span (Recorder.Begin, Span.Child) and every phase activation
// (phase.Ledger.Begin, or a joiner's wrapper of it) ends exactly once on
// every path. A leaked span drags trace Coverage below the CI threshold
// and, for an activation, drops its phase's time and I/O from Stats; an
// extra End records a span twice. There is one closing form, so there is
// no path analysis: an opening call is accepted only as the sole
// right-hand side of "x := …" or "x = …" whose next statement is
// "defer x.End()", or as a return result (or a field of a returned
// composite literal), whose caller is held to the same rule. Every other
// opening call is reported, and so is every End that is not a deferred
// call, outside the trace and phase packages that implement End.
var AnalyzerSpanend = &Analyzer{
	Name: "spanend",
	Doc:  "every trace span or phase activation is opened by x := … with defer x.End() on the next line, or returned",
	Run:  runSpanend,
}

func runSpanend(p *Pass) {
	implEnd := p.Pkg.Path() == pathTrace || p.Pkg.Path() == pathPhase
	for _, f := range p.Files {
		// ast.Inspect visits a statement before the calls inside it, so
		// a call is marked accepted before it is checked.
		accepted := make(map[*ast.CallExpr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				acceptDeferred(p.Info, n.List, accepted)
			case *ast.CaseClause:
				acceptDeferred(p.Info, n.Body, accepted)
			case *ast.CommClause:
				acceptDeferred(p.Info, n.Body, accepted)
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if lit, ok := ast.Unparen(r).(*ast.CompositeLit); ok {
						for _, e := range lit.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								e = kv.Value
							}
							acceptCall(e, accepted)
						}
					}
					acceptCall(r, accepted)
				}
			case *ast.DeferStmt:
				accepted[n.Call] = isEnd(p.Info, n.Call)
			case *ast.CallExpr:
				switch {
				case accepted[n]:
				case opensSpan(p.Info, n):
					p.Reportf(n.Pos(), "span or activation must be assigned with defer x.End() on the next line, or returned")
				case isEnd(p.Info, n) && !implEnd:
					p.Reportf(n.Pos(), "End outside a defer: end a span or activation only by defer x.End() on the line after it opens")
				}
			}
			return true
		})
	}
}

// acceptDeferred marks each call in stmts that is the sole right-hand
// side of an assignment to x whose next statement is "defer x.End()".
func acceptDeferred(info *types.Info, stmts []ast.Stmt, accepted map[*ast.CallExpr]bool) {
	for i := 0; i+1 < len(stmts); i++ {
		as, ok := stmts[i].(*ast.AssignStmt)
		d, isDefer := stmts[i+1].(*ast.DeferStmt)
		if !ok || !isDefer || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isEnd(info, d.Call) {
			continue
		}
		x, ok := as.Lhs[0].(*ast.Ident)
		sel := ast.Unparen(d.Call.Fun).(*ast.SelectorExpr)
		if recv, isIdent := ast.Unparen(sel.X).(*ast.Ident); ok && isIdent && info.ObjectOf(x) != nil && info.ObjectOf(x) == info.Uses[recv] {
			acceptCall(as.Rhs[0], accepted)
		}
	}
}

func acceptCall(e ast.Expr, accepted map[*ast.CallExpr]bool) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		accepted[call] = true
	}
}

// opensSpan reports whether call yields a *trace.Span or a
// phase.Activation.
func opensSpan(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	return isNamed(t, pathTrace, "Span") || isNamed(t, pathPhase, "Activation")
}

// isEnd reports whether call is (*trace.Span).End or (phase.Activation).End.
func isEnd(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return isMethodOn(fn, pathTrace, "Span", "End") || isMethodOn(fn, pathPhase, "Activation", "End")
}
