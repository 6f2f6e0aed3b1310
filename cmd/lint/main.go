// Command lint is the engine's invariant linter: a multichecker that runs
// the internal/analysis suite — lockorder, snapshotsafe, ioboundary,
// metricsname per package, then deadexport once over all of them — over the
// module and exits non-zero on any finding.
//
//	go run ./cmd/lint ./...
//
// Findings print as file:line:col: message [analyzer]. A finding is
// suppressed only by a justified directive on its line:
//
//	//nolint:lockorder // <why the contract does not apply here>
//
// An unjustified directive is itself a finding. The contracts the suite
// enforces are defined once, in internal/analysis/contracts, and documented
// in DESIGN.md's "Concurrency contracts" section.
package main

import (
	"fmt"
	"io"
	"os"

	"dualindex/internal/analysis/deadexport"
	"dualindex/internal/analysis/framework"
	"dualindex/internal/analysis/ioboundary"
	"dualindex/internal/analysis/lockorder"
	"dualindex/internal/analysis/metricsname"
	"dualindex/internal/analysis/snapshotsafe"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint(os.Stdout, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// lint loads the packages matching patterns, runs the per-package analyzers
// over each and deadexport once over all of them, prints every finding to
// w and returns how many there were.
func lint(w io.Writer, patterns ...string) (int, error) {
	analyzers := []*framework.Analyzer{
		lockorder.Analyzer,
		snapshotsafe.Analyzer,
		ioboundary.Analyzer,
		metricsname.Analyzer,
	}
	pkgs, err := framework.Load(".", patterns...)
	if err != nil || len(pkgs) == 0 {
		return 0, err
	}
	var diags []framework.Diagnostic
	for _, pkg := range pkgs {
		ds, err := framework.Run(pkg, analyzers)
		if err != nil {
			return 0, err
		}
		diags = append(diags, ds...)
	}
	diags = append(diags, framework.RunModule(pkgs, deadexport.Analyzer)...)
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s [%s]\n", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return len(diags), nil
}
