// Package analysistest runs an analyzer over a golden source tree and
// checks its findings against `// want "regex"` annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest: each annotated line must
// produce a matching diagnostic and each diagnostic must be annotated.
// Fixtures live under <testdata>/src/<pkg>/ in GOPATH layout and are loaded
// with framework.LoadTree, so they may mirror repo types (package dualindex
// with Engine and shard, package metrics with Registry) without being part
// of the module build.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"dualindex/internal/analysis/framework"
)

// wantRe extracts the quoted regex from a `// want "..."` annotation.
var wantRe = regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)

type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads each named package from testdata/src, applies the analyzer
// (through framework.Run, so //nolint suppression is in effect exactly as
// in cmd/lint) and verifies the diagnostics against the fixtures' want
// annotations.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgs ...string) {
	t.Helper()
	for _, name := range pkgs {
		loaded, err := framework.LoadTree(testdata+"/src", name)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		diags, err := framework.Run(loaded[0], []*framework.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, name, err)
		}
		check(t, loaded, diags)
	}
}

// RunModule loads the named packages from testdata/src together, applies
// the module analyzer once over all of them (through framework.RunModule,
// as cmd/lint does) and verifies the diagnostics against the want
// annotations of every package.
func RunModule(t *testing.T, testdata string, a *framework.ModuleAnalyzer, pkgs ...string) {
	t.Helper()
	loaded, err := framework.LoadTree(testdata+"/src", pkgs...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", pkgs, err)
	}
	check(t, loaded, framework.RunModule(loaded, a))
}

// check matches diagnostics to the packages' want annotations one to one.
func check(t *testing.T, pkgs []*framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	fset := pkgs[0].Fset
	wants := map[string][]*want{}
	for _, pkg := range pkgs {
		collectWants(t, pkg, wants)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		if !consume(wants[key], d.Message) {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", key, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %s, got none", key, w.raw)
			}
		}
	}
}

// consume marks the first unmatched want whose regex matches the message.
func consume(ws []*want, message string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants adds every want annotation in the fixture to wants, keyed
// by file:line.
func collectWants(t *testing.T, pkg *framework.Package, wants map[string][]*want) {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					raw, err := strconv.Unquote(m[1])
					if err != nil {
						t.Fatalf("%s: bad want annotation %s: %v", pkg.Fset.Position(c.Pos()), m[1], err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regex %q: %v", pkg.Fset.Position(c.Pos()), raw, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &want{re: re, raw: m[1]})
				}
			}
		}
	}
}
