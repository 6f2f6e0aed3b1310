// Package metricsname enforces the metric-naming contract on
// internal/metrics' Registry: every registration (Counter, Histogram,
// RegisterFunc) names its series with a compile-time literal whose base
// name is lower_snake, label keys are lower_snake, and no two call sites in
// a package register the same fully-literal series. The Prometheus
// exposition and every dashboard reading it key on these strings — a typo or a drift between two registration sites silently
// forks a series, so the names must be greppable literals, written once.
//
// Dynamic label *values* are fine (the per-shard series are built as
// `flushes_total{shard="` + shard + `"}`): the rule is that the leftmost
// operand of the name expression is a literal carrying the base name.
package metricsname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"dualindex/internal/analysis/contracts"
	"dualindex/internal/analysis/framework"
)

// Analyzer checks the repo's metric-name contract.
var Analyzer = NewAnalyzer(contracts.MetricsContract)

var (
	baseNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	labelKeyRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// NewAnalyzer builds a metricsname analyzer for the registrar description.
func NewAnalyzer(cfg contracts.MetricRegistrar) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "metricsname",
		Doc: "metric names are literal lower_snake strings registered once: " +
			"the exposition and its dashboards key on them, so they must never be computed or duplicated",
		Run: func(pass *framework.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

func run(pass *framework.Pass, cfg contracts.MetricRegistrar) {
	seen := map[string]token.Pos{} // fully-literal name → first registration
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if !isRegistration(pass.Info, call, cfg) {
				return true
			}
			checkName(pass, call.Args[0], seen)
			return true
		})
	}
}

// isRegistration reports whether call is recv.<Method>(...) with recv the
// registrar type from the contract.
func isRegistration(info *types.Info, call *ast.CallExpr, cfg contracts.MetricRegistrar) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !cfg.Methods[sel.Sel.Name] {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == cfg.Type &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == cfg.Pkg
}

// checkName validates one registration's name argument.
func checkName(pass *framework.Pass, arg ast.Expr, seen map[string]token.Pos) {
	parts, allLiteral := flatten(pass.Info, arg)
	if len(parts) == 0 {
		pass.Reportf(arg.Pos(),
			"metric name does not start with a literal: the series' base name must be a compile-time lower_snake string (dynamic label values may be concatenated after it)")
		return
	}
	base, labels, hasLabels := strings.Cut(parts[0], "{")
	if !baseNameRe.MatchString(base) {
		pass.Reportf(arg.Pos(), "metric base name %q is not lower_snake ([a-z][a-z0-9_]*)", base)
		return
	}
	if hasLabels {
		for _, k := range labelKeys(labels) {
			if !labelKeyRe.MatchString(k) {
				pass.Reportf(arg.Pos(), "metric %s: label key %q is not lower_snake", base, k)
			}
		}
	}
	if allLiteral {
		full := strings.Join(parts, "")
		if first, dup := seen[full]; dup {
			pass.Reportf(arg.Pos(),
				"metric %q registered twice in this package (first at %s): register once and share the handle",
				full, pass.Fset.Position(first))
		} else {
			seen[full] = arg.Pos()
		}
	}
}

// flatten decomposes a string expression into its constant pieces in
// source order, following `+` concatenation. A non-constant operand
// contributes no piece and clears allLiteral; if even the leftmost operand
// is non-constant, no pieces are returned at all (the base name is not a
// literal).
func flatten(info *types.Info, e ast.Expr) (parts []string, allLiteral bool) {
	allLiteral = true
	dynamicFirst := false
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			parts = append(parts, constant.StringVal(tv.Value))
			return
		}
		switch e := e.(type) {
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				walk(e.X)
				walk(e.Y)
				return
			}
		case *ast.ParenExpr:
			walk(e.X)
			return
		}
		allLiteral = false
		if len(parts) == 0 {
			dynamicFirst = true
		}
	}
	walk(e)
	if dynamicFirst {
		return nil, false
	}
	return parts, allLiteral
}

// labelKeys extracts the label keys from the literal tail of a name, e.g.
// `phase="plan",shard="` → ["phase", "shard"]. Only `key=` pieces are
// checked; pieces without '=' (a label value split by dynamic
// concatenation) are skipped.
func labelKeys(s string) []string {
	var keys []string
	for _, piece := range strings.Split(s, ",") {
		if k, _, ok := strings.Cut(piece, "="); ok {
			keys = append(keys, strings.Trim(k, `"} `))
		}
	}
	return keys
}
