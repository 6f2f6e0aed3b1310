package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path    string // import path
	Dir     string
	GoFiles []string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPackage is the slice of `go list -json` output the loader consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load loads the packages matching patterns (resolved in dir), parses their
// sources with comments and type-checks them against the compiler's export
// data. Only the matched packages are parsed; their dependencies — standard
// library and intra-module alike — are imported from the `go list -export`
// build artifacts, so loading ./... costs one build plus one parse+check of
// the module's own sources.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []listPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	var out []*Package
	for _, p := range targets {
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := checkPackage(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// goList runs `go list -e -export -deps -json` and decodes its package
// stream. -export populates each buildable package's compiled export data
// path from the build cache; -deps pulls in the transitive closure so every
// import the type-checker will resolve is covered.
func goList(dir string, patterns []string) ([]listPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=Dir,ImportPath,Export,Standard,DepOnly,GoFiles,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var out []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// checkPackage parses and type-checks one package's sources.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, gf), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{
		Path:    path,
		Dir:     dir,
		GoFiles: goFiles,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// LoadTree type-checks a GOPATH-style source tree rooted at srcRoot: the
// packages in srcRoot/<name> are loaded, in order, into one FileSet — their
// non-test files only, as Load sees a package — and
// their imports resolve first to sibling directories under srcRoot, then to
// the standard library's export data. This is how analysistest loads
// golden-test fixtures, which mirror repo types (Engine, shard, Registry)
// without being part of the module.
func LoadTree(srcRoot string, names ...string) ([]*Package, error) {
	ld := &treeLoader{srcRoot: srcRoot, fset: token.NewFileSet(), cache: map[string]*Package{}}
	var out []*Package
	for _, name := range names {
		p, err := ld.load(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

type treeLoader struct {
	srcRoot string
	fset    *token.FileSet
	cache   map[string]*Package
	exports map[string]string
	std     types.Importer
}

func (l *treeLoader) load(name string) (*Package, error) {
	if p, ok := l.cache[name]; ok {
		return p, nil
	}
	dir := filepath.Join(l.srcRoot, name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" && !strings.HasSuffix(e.Name(), "_test.go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	pkg, err := checkPackage(l.fset, (*treeImporter)(l), name, dir, goFiles)
	if err != nil {
		return nil, err
	}
	l.cache[name] = pkg
	return pkg, nil
}

// treeImporter resolves imports for LoadTree: tree-local packages by
// recursive source loading, everything else through the gc export data the
// toolchain has for it.
type treeImporter treeLoader

func (ti *treeImporter) Import(path string) (*types.Package, error) {
	l := (*treeLoader)(ti)
	if _, err := os.Stat(filepath.Join(l.srcRoot, path)); err == nil {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if l.exports == nil {
		l.exports = map[string]string{}
		l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := l.exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
	}
	if _, ok := l.exports[path]; !ok {
		// Resolve this import (and its dependency closure, which the gc
		// importer will chase) through the toolchain's export data.
		listed, err := goList(l.srcRoot, []string{path})
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				l.exports[p.ImportPath] = p.Export
			}
		}
	}
	return l.std.Import(path)
}
