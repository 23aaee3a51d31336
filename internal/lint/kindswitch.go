package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// enumSwitchTypes lists the module's closed enums: named types whose
// package-level constants enumerate every legal value, so a switch that
// misses one and has no default silently misroutes it. joinerr.Kind is
// how embedders route outcomes (retry I/O failures, surface
// cancellations, requeue shard failures); pbsm.DupMethod is the
// duplicate-handling axis (rpm/sort/tlsp), where a fall-through would
// silently drop a method's dedup entirely.
var enumSwitchTypes = []struct{ pkgPath, name string }{
	{pathJoinerr, "Kind"},
	{pathPBSM, "DupMethod"},
}

// AnalyzerKindswitch flags switches over the module's closed enum types
// (joinerr.Kind, pbsm.DupMethod) that neither cover every constant nor
// carry a default clause.
var AnalyzerKindswitch = &Analyzer{
	Name: "kindswitch",
	Doc:  "switches over closed enum types (joinerr.Kind, pbsm.DupMethod) must be exhaustive or carry a default clause",
	Run:  runKindswitch,
}

func runKindswitch(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := p.Info.Types[sw.Tag]
			if !ok {
				return true
			}
			for _, et := range enumSwitchTypes {
				if isNamed(tv.Type, et.pkgPath, et.name) {
					checkKindSwitch(p, sw, namedType(tv.Type))
					break
				}
			}
			return true
		})
	}
}

func checkKindSwitch(p *Pass, sw *ast.SwitchStmt, kind *types.Named) {
	// The universe: every package-level constant of the enum type
	// declared in its own package, resolved from the type-checked
	// package so a new constant widens the requirement automatically.
	want := make(map[string]string) // constant exact value -> name
	scope := kind.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(types.Unalias(c.Type()), kind) {
			continue
		}
		want[c.Val().ExactString()] = c.Name()
	}

	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default clause: future kinds have a route
		}
		for _, expr := range cc.List {
			if tv, ok := p.Info.Types[expr]; ok && tv.Value != nil {
				delete(want, tv.Value.ExactString())
			}
		}
	}
	if len(want) == 0 {
		return
	}
	missing := make([]string, 0, len(want))
	for _, name := range want {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	p.Reportf(sw.Pos(),
		"switch over %s.%s is not exhaustive and has no default: missing %s",
		kind.Obj().Pkg().Name(), kind.Obj().Name(), strings.Join(missing, ", "))
}
