// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer runs over one
// type-checked package (a Pass) and reports Diagnostics, and a
// ModuleAnalyzer runs once over all of them. The engine's invariant linters
// (internal/analysis/{lockorder,snapshotsafe,ioboundary,metricsname,
// deadexport}) are written against it, and cmd/lint is the multichecker
// that drives them over ./... .
//
// The build environment is hermetic — no module proxy — so vendoring or
// fetching x/tools is not an option; this package keeps the same shape
// (Analyzer{Name, Doc, Run}, Pass.Reportf) so the analyzers can be ported
// to the real go/analysis driver mechanically if the dependency ever
// becomes available. Loading is built on `go list -export` plus the
// standard library's gc-export-data importer (see load.go), so analysis
// type-checks against exactly what the compiler built.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Run is invoked once per
// package with a fully type-checked Pass and reports findings through
// pass.Report/Reportf; a non-nil error aborts the whole run (reserved for
// internal failures, not findings).
type Analyzer struct {
	Name string // short lower-case identifier, used in //nolint: comments
	Doc  string // one-paragraph contract statement
	Run  func(*Pass) error
}

// A Pass is one analyzer's view of one package: shared fileset, parsed
// syntax (with comments), the type-checked package object and full type
// info. Report appends a Diagnostic; the driver owns collection, nolint
// filtering and exit status.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diagnostics []Diagnostic
}

// A Diagnostic is one finding, anchored to a position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.diagnostics = append(p.diagnostics, d)
}

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Run executes every analyzer over the package and returns the surviving
// diagnostics: findings on lines carrying a well-formed //nolint comment
// naming the analyzer are dropped, and malformed suppressions (no
// justification) become findings of their own. Diagnostics come back
// sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diagnostics {
			if sup.covers(pkg.Fset.Position(d.Pos), a.Name) {
				continue
			}
			out = append(out, d)
		}
	}
	out = append(out, sup.malformed...)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// A ModuleAnalyzer checks an invariant about references between packages,
// which no single Pass can see. Run is invoked once over every loaded
// package (all sharing one FileSet) and returns its findings, each carrying
// the analyzer's name.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(pkgs []*Package) []Diagnostic
}

// RunModule executes a module analyzer and drops the findings that a
// justified //nolint directive naming it covers, exactly as Run does for a
// package. Malformed directives are left to Run, which reports each once.
func RunModule(pkgs []*Package, a *ModuleAnalyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	var files []*ast.File
	for _, p := range pkgs {
		files = append(files, p.Files...)
	}
	sup := collectSuppressions(fset, files)
	var out []Diagnostic
	for _, d := range a.Run(pkgs) {
		d.Analyzer = a.Name
		if !sup.covers(fset.Position(d.Pos), a.Name) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// A suppression is one parsed //nolint comment: which analyzers it silences
// and which source line it covers.
type suppression struct {
	file      string
	line      int
	analyzers map[string]bool
}

type suppressions struct {
	entries   []suppression
	malformed []Diagnostic
}

// nolintRe matches "//nolint:name1,name2 // justification". The justification
// clause is mandatory: a suppression must say why the contract does not
// apply at this site, or it is itself a finding.
var nolintRe = regexp.MustCompile(`^//nolint:([a-z0-9_,]+)(.*)$`)

// collectSuppressions parses every //nolint comment in the files. A comment
// covers the line it sits on; a comment alone on its line also covers the
// next line (the usual "annotation above the statement" placement).
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	var sup suppressions
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := nolintRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				rest := strings.TrimSpace(m[2])
				just := strings.TrimSpace(strings.TrimPrefix(rest, "//"))
				if !strings.HasPrefix(rest, "//") || just == "" {
					sup.malformed = append(sup.malformed, Diagnostic{
						Pos:      c.Pos(),
						Message:  "nolint suppression requires a justification: //nolint:<analyzers> // <why the contract does not apply here>",
						Analyzer: "nolint",
					})
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(m[1], ",") {
					names[strings.TrimSpace(n)] = true
				}
				pos := fset.Position(c.Pos())
				sup.entries = append(sup.entries, suppression{pos.Filename, pos.Line, names})
				// A directive on its own line annotates the statement below.
				if pos.Column == 1 || onlyCommentOnLine(fset, f, c) {
					sup.entries = append(sup.entries, suppression{pos.Filename, pos.Line + 1, names})
				}
			}
		}
	}
	return sup
}

// onlyCommentOnLine reports whether c is the first token on its line, i.e.
// a standalone annotation rather than a trailing one.
func onlyCommentOnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	first := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !first {
			return false
		}
		if npos := fset.Position(n.Pos()); npos.Line == cpos.Line && npos.Column < cpos.Column {
			first = false
		}
		return first
	})
	return first
}

func (s suppressions) covers(pos token.Position, analyzer string) bool {
	for _, e := range s.entries {
		if e.file == pos.Filename && e.line == pos.Line && (e.analyzers[analyzer] || e.analyzers["all"]) {
			return true
		}
	}
	return false
}
