package framework_test

import (
	"go/ast"
	"strings"
	"testing"

	"dualindex/internal/analysis/framework"
)

// dummy reports one finding per function whose name starts with "target".
var dummy = &framework.Analyzer{
	Name: "dummy",
	Doc:  "test analyzer",
	Run: func(pass *framework.Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "target") {
					pass.Reportf(fn.Name.Pos(), "finding at %s", fn.Name.Name)
				}
			}
		}
		return nil
	},
}

// TestNolintSuppression pins the driver's suppression contract: a justified
// directive (trailing or standalone-above) silences its analyzers, "all"
// silences everything, a directive naming another analyzer suppresses
// nothing, and a directive without a justification is itself a finding.
func TestNolintSuppression(t *testing.T) {
	pkgs, err := framework.LoadTree("testdata/src", "nolintfix")
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	diags, err := framework.Run(pkg, []*framework.Analyzer{dummy})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{} // finding key → analyzer
	for _, d := range diags {
		key := d.Message
		if d.Analyzer == "nolint" {
			key = "malformed@" + pkg.Fset.Position(d.Pos).String()
		}
		got[key] = d.Analyzer
	}

	for _, suppressed := range []string{"target1", "target4", "target5"} {
		if _, ok := got["finding at "+suppressed]; ok {
			t.Errorf("finding at %s should be suppressed", suppressed)
		}
	}
	for _, surviving := range []string{"target2", "target3", "target6"} {
		if _, ok := got["finding at "+surviving]; !ok {
			t.Errorf("finding at %s should survive", surviving)
		}
	}
	malformed := 0
	for _, a := range got {
		if a == "nolint" {
			malformed++
		}
	}
	if malformed != 1 {
		t.Errorf("want exactly 1 malformed-suppression finding (target2's bare directive), got %d", malformed)
	}
}

// TestLoadSelf loads the framework's own package through the production
// loader, proving Load resolves module-internal imports from export data.
func TestLoadSelf(t *testing.T) {
	pkgs, err := framework.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "dualindex/internal/analysis/framework" {
		t.Fatalf("unexpected packages: %+v", pkgs)
	}
	if pkgs[0].Types.Scope().Lookup("Analyzer") == nil {
		t.Error("type-checked package is missing the Analyzer declaration")
	}
}
