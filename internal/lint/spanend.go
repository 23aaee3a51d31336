package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerSpanend enforces the paired-span contract of the trace layer:
// every span a function creates (Recorder.Begin or Span.Child assigned
// to a local variable) must be closed on every path out of its scope.
// A leaked span never records its duration and silently drags trace
// Coverage below the CI threshold, so the leak must fail loudly at lint
// time instead. A phase activation (phase.Ledger.Begin, or a joiner's
// wrapper of it) owns a span and charges its phase when it ends, so it is
// held to the same contract: an activation that is never ended leaks its
// span and drops the phase's time and I/O from the join's Stats.
//
// The analysis is lexical, not a full CFG, and accepts three closing
// patterns:
//
//   - defer x.End() (or a deferred closure that ends x, possibly via a
//     named closing closure) — the preferred form;
//   - an x.End() on the statement path before each return: for every
//     return after the assignment, some x.End() must appear between the
//     assignment and the return in one of the return's enclosing
//     blocks;
//   - a block that only exits via already-checked returns (every
//     trailing path terminates).
//
// Reassigning a live span variable is treated like a return: the old
// span must have been ended on the path first. Calls that create a span
// and discard the result are always reported.
var AnalyzerSpanend = &Analyzer{
	Name: "spanend",
	Doc:  "every trace span Begin/Child must have an End reachable on all return paths, ideally via defer",
	Run:  runSpanend,
}

func runSpanend(p *Pass) {
	for _, f := range p.Files {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkSpanScope(p, parents, fn.Body)
				}
			case *ast.FuncLit:
				checkSpanScope(p, parents, fn.Body)
			case *ast.ExprStmt:
				// A span-creating call whose result is dropped can never
				// be ended.
				if call, ok := fn.X.(*ast.CallExpr); ok && isSpanType(spanCallType(p.Info, call)) {
					p.Reportf(call.Pos(), "result of span-creating call is discarded, so the span can never be ended")
				}
			}
			return true
		})
	}
}

// spanAssign is one tracked "x := ...Begin/Child(...)" site.
type spanAssign struct {
	obj  types.Object
	stmt ast.Stmt
	pos  token.Pos
}

func checkSpanScope(p *Pass, parents parentMap, body *ast.BlockStmt) {
	info := p.Info

	// Pass 1: span-typed locals assigned in this function, named
	// closures that close spans, plain End-call statements, returns and
	// defers.
	var assigns []spanAssign
	enders := make(map[types.Object]map[types.Object]bool) // closure var -> spans it ends
	var endStmts []ast.Stmt                                // statements whose effect is ending a span
	var returns []*ast.ReturnStmt
	var defers []*ast.DeferStmt

	inspectShallow(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := objOf(info, id)
					if obj == nil {
						continue
					}
					if lit, ok := s.Rhs[i].(*ast.FuncLit); ok {
						if ended := spansEndedBy(info, lit); len(ended) > 0 {
							enders[obj] = ended
						}
						continue
					}
					call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr)
					if ok && isSpanType(spanCallType(info, call)) {
						assigns = append(assigns, spanAssign{obj: obj, stmt: s, pos: s.Pos()})
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range s.Names {
				if i >= len(s.Values) || id.Name == "_" {
					continue
				}
				obj := objOf(info, id)
				if obj == nil {
					continue
				}
				if lit, ok := s.Values[i].(*ast.FuncLit); ok {
					if ended := spansEndedBy(info, lit); len(ended) > 0 {
						enders[obj] = ended
					}
					continue
				}
				if call, ok := ast.Unparen(s.Values[i]).(*ast.CallExpr); ok && isSpanType(spanCallType(info, call)) {
					if stmt, ok := parents[parents[s]].(ast.Stmt); ok { // ValueSpec -> GenDecl -> DeclStmt
						assigns = append(assigns, spanAssign{obj: obj, stmt: stmt, pos: s.Pos()})
					}
				}
			}
		case *ast.ExprStmt:
			endStmts = append(endStmts, s)
		case *ast.ReturnStmt:
			returns = append(returns, s)
		case *ast.DeferStmt:
			defers = append(defers, s)
		}
		return true
	})

	for _, a := range assigns {
		checkSpanVar(p, parents, a, assigns, enders, endStmts, returns, defers)
	}
}

func checkSpanVar(p *Pass, parents parentMap, a spanAssign, assigns []spanAssign,
	enders map[types.Object]map[types.Object]bool, endStmts []ast.Stmt,
	returns []*ast.ReturnStmt, defers []*ast.DeferStmt) {

	info := p.Info
	name := a.obj.Name()

	// Deferred closing covers every path at once. A direct
	// "defer x.End()" evaluates its receiver when the defer statement
	// runs, so it only counts after the assignment; a deferred closure
	// (or a deferred call to a named closing closure) reads the
	// variable at function exit and may be registered up front.
	for _, d := range defers {
		if directEndReceiver(info, d.Call) == a.obj {
			if d.Pos() > a.pos {
				return
			}
			continue
		}
		if isEndingCall(info, enders, a.obj, d.Call) {
			return
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && closureEnds(info, enders, a.obj, lit) {
			return
		}
	}

	// Otherwise every exit after the assignment needs an End on its
	// statement path. Exits are returns and reassignments of the same
	// variable.
	ending := func(stmt ast.Stmt) bool {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		return ok && isEndingCall(info, enders, a.obj, call)
	}
	onPath := func(exitPos token.Pos, exit ast.Node) bool {
		chain := parents.containerChain(exit)
		inChain := func(c ast.Node) bool {
			for _, b := range chain {
				if b == c {
					return true
				}
			}
			return false
		}
		for _, s := range endStmts {
			if s.Pos() > a.pos && s.End() <= exitPos && ending(s) && inChain(parents.container(s)) {
				return true
			}
		}
		return false
	}

	home := parents.container(a.stmt)
	inHome := func(n ast.Node) bool {
		if parents.container(n) == home {
			return true
		}
		for _, b := range parents.containerChain(n) {
			if b == home {
				return true
			}
		}
		return false
	}

	for _, ret := range returns {
		if ret.Pos() <= a.pos || !inHome(ret) {
			continue
		}
		if !onPath(ret.Pos(), ret) {
			p.Reportf(a.pos,
				"span %s may leak: return at line %d is reachable with no %s.End() on the path (prefer defer %s.End())",
				name, p.Fset.Position(ret.Pos()).Line, name, name)
			return
		}
	}
	for _, other := range assigns {
		if other.obj != a.obj || other.pos <= a.pos || !inHome(other.stmt) {
			continue
		}
		if !onPath(other.pos, other.stmt) {
			p.Reportf(a.pos,
				"span %s may leak: reassigned at line %d with no %s.End() on the path in between",
				name, p.Fset.Position(other.pos).Line, name)
			return
		}
		break // further reassignments are the successor's problem
	}

	// Fall-through: the declaring block must end the span directly, or
	// only leave via the returns checked above.
	stmts := stmtList(home)
	var after []ast.Stmt
	for _, s := range stmts {
		if s.Pos() > a.pos {
			after = append(after, s)
		}
	}
	for _, s := range after {
		if ending(s) {
			return
		}
		// A reassignment checked above also bounds this span's life.
		if as, ok := s.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && objOf(info, id) == a.obj {
					return
				}
			}
		}
	}
	if len(after) > 0 && terminates(info, after[len(after)-1]) {
		return
	}
	p.Reportf(a.pos,
		"span %s may leak: control can fall off the enclosing block with no %s.End() (prefer defer %s.End())",
		name, name, name)
}

func stmtList(container ast.Node) []ast.Stmt {
	switch c := container.(type) {
	case *ast.BlockStmt:
		return c.List
	case *ast.CaseClause:
		return c.Body
	case *ast.CommClause:
		return c.Body
	}
	return nil
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// spanCallType returns the call's result type when it yields a single
// value, else nil.
func spanCallType(info *types.Info, call *ast.CallExpr) types.Type {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	if _, isTuple := tv.Type.(*types.Tuple); isTuple {
		return nil
	}
	return tv.Type
}

func isSpanType(t types.Type) bool {
	return t != nil && (isNamed(t, pathTrace, "Span") || isNamed(t, pathPhase, "Activation"))
}

// spansEndedBy returns the span objects on which lit's body (at any
// depth) calls End.
func spansEndedBy(info *types.Info, lit *ast.FuncLit) map[types.Object]bool {
	ended := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := directEndReceiver(info, call); obj != nil {
			ended[obj] = true
		}
		return true
	})
	if len(ended) == 0 {
		return nil
	}
	return ended
}

// directEndReceiver returns the local object x for a call of the form
// x.End() where End is (*trace.Span).End or (phase.Activation).End, else
// nil.
func directEndReceiver(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := calleeFunc(info, call)
	if !ok || !(isMethodOn(fn, pathTrace, "Span", "End") || isMethodOn(fn, pathPhase, "Activation", "End")) {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// isEndingCall reports whether call ends span obj: directly via
// obj.End(), or by invoking a closure known to end it.
func isEndingCall(info *types.Info, enders map[types.Object]map[types.Object]bool,
	obj types.Object, call *ast.CallExpr) bool {
	if directEndReceiver(info, call) == obj {
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if set := enders[info.Uses[id]]; set != nil && set[obj] {
			return true
		}
	}
	return false
}

// closureEnds reports whether lit's body contains a call that ends obj.
func closureEnds(info *types.Info, enders map[types.Object]map[types.Object]bool,
	obj types.Object, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isEndingCall(info, enders, obj, call) {
			found = true
		}
		return true
	})
	return found
}
