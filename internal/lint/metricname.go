package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
)

// AnalyzerMetricname enforces the metrics namespace convention: every
// name passed to a registration method on *metrics.Registry (Counter,
// Gauge, Histogram and their Vec variants) must be a
// declared constant whose declaration lives in the owning package's
// metrics.go (or *_metrics.go) file, and whose value is dotted
// lowercase ("diskio.read.requests"). The file rule keeps each
// package's slice of the namespace auditable in one place; the const
// rule keeps names greppable and typo-proof; the format rule keeps the
// Prometheus rendering (dots → underscores) collision-free.
//
// The metrics package itself is exempt: it defines the convention and
// its tests deliberately exercise arbitrary names.
var AnalyzerMetricname = &Analyzer{
	Name: "metricname",
	Doc:  "metrics registration must use dotted-lowercase consts declared in the package's metrics.go",
	Run:  runMetricname,
}

// metricNameRE is the dotted-lowercase shape: at least two dot-
// separated segments of [a-z0-9_], starting with a letter.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

// metricRegistrationMethods are the *metrics.Registry methods whose
// first argument mints a metric name.
var metricRegistrationMethods = map[string]bool{
	"Counter":    true,
	"Gauge":      true,
	"Histogram":  true,
	"CounterVec": true,
	"GaugeVec":   true,
}

func runMetricname(p *Pass) {
	if p.Pkg.Path() == pathMetrics {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || !metricRegistrationMethods[fn.Name()] ||
				!isMethodOn(fn, pathMetrics, "Registry", fn.Name()) || len(call.Args) == 0 {
				return true
			}
			checkMetricNameArg(p, fn.Name(), call.Args[0])
			return true
		})
	}
}

// checkMetricNameArg validates one registration call's name argument.
func checkMetricNameArg(p *Pass, method string, arg ast.Expr) {
	var id *ast.Ident
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		p.Reportf(arg.Pos(),
			"Registry.%s name must be a declared const (in this package's metrics.go), not an expression",
			method)
		return
	}
	c, ok := p.Info.Uses[id].(*types.Const)
	if !ok {
		p.Reportf(arg.Pos(),
			"Registry.%s name must be a declared const (in this package's metrics.go), not %s",
			method, id.Name)
		return
	}
	file := filepath.Base(p.Fset.Position(c.Pos()).Filename)
	if file != "metrics.go" && !strings.HasSuffix(file, "_metrics.go") {
		p.Reportf(arg.Pos(),
			"metric name const %s is declared in %s; metric names live in the package's metrics.go (or *_metrics.go) so its namespace is auditable in one place",
			id.Name, file)
		return
	}
	if c.Val().Kind() != constant.String {
		p.Reportf(arg.Pos(), "metric name const %s is not a string", id.Name)
		return
	}
	if v := constant.StringVal(c.Val()); !metricNameRE.MatchString(v) {
		p.Reportf(arg.Pos(),
			"metric name %q is not dotted lowercase (want at least two dot-separated [a-z0-9_] segments, e.g. %q)",
			v, "diskio.read.requests")
	}
}
