// Package ioboundary enforces the engine's abstraction boundaries around
// real I/O and raw postings bytes:
//
//   - File I/O (the os package's file calls, and anything in syscall)
//     happens only in the storage layer and the few packages
//     that own an on-disk format (contracts.FileIOPackages), in main
//     packages (CLI tools), or in the root package's file-backend glue
//     files (contracts.FileIORootFiles). Everything else reaches disk
//     through Options.Backend, which is what keeps the paper's cost
//     accounting and the simulated-trace guarantees honest.
//
//   - Only the layers that implement the block-store abstraction may
//     import internal/disk (contracts.DiskImporters), and only the block
//     owners (bucket, longlist, core) may call internal/postings' raw
//     codec entry points (contracts.CodecSymbols/CodecUsers) — postings
//     bytes always flow through Options.Codec.
//
//   - Goroutines start only in the library's one fan-out and the storage
//     layer's per-disk writers (contracts.GoroutinePackages), or in main
//     packages: a hand-rolled worker pool anywhere else is a finding.
package ioboundary

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"dualindex/internal/analysis/contracts"
	"dualindex/internal/analysis/framework"
)

// Config carries the boundary tables; the repo instance lives in contracts.
type Config struct {
	FileIOFuncs       map[string]bool
	FileIOPackages    []string
	FileIORootFiles   []string
	GoroutinePackages []string
	SyscallPackages   []string
	DiskImporters     []string
	DiskPath          string // import path (suffix) of the block-store package
	CodecSymbols      map[string]bool
	CodecUsers        []string
	CodecPath         string // import path (suffix) of the postings package
}

// Analyzer checks the repo's I/O boundaries.
var Analyzer = NewAnalyzer(Config{
	FileIOFuncs:       contracts.FileIOFuncs,
	FileIOPackages:    contracts.FileIOPackages,
	FileIORootFiles:   contracts.FileIORootFiles,
	GoroutinePackages: contracts.GoroutinePackages,
	SyscallPackages:   contracts.SyscallPackages,
	DiskImporters:     contracts.DiskImporters,
	DiskPath:          "internal/disk",
	CodecSymbols:      contracts.CodecSymbols,
	CodecUsers:        contracts.CodecUsers,
	CodecPath:         "internal/postings",
})

// NewAnalyzer builds an ioboundary analyzer over cfg.
func NewAnalyzer(cfg Config) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "ioboundary",
		Doc: "file I/O only in the storage layer (everything else goes through Options.Backend); " +
			"raw postings bytes only through Options.Codec's owners; " +
			"go statements only in parallel.Do and the storage layer",
		Run: func(pass *framework.Pass) error {
			run(pass, cfg)
			return nil
		},
	}
}

// pathAllowed reports whether the package's import path ends in one of the
// allowed suffixes ("" allows the module root: a path with no slash-suffix
// match only matches "" when it is the module root itself, which we detect
// as "no internal/ or cmd/ segment" being the shortest path in the module).
func pathAllowed(pkgPath string, allowed []string) bool {
	for _, suf := range allowed {
		if suf == "" {
			// The module root package: its import path is the module path,
			// with no path separator past the module name. Match it by
			// exclusion: no other suffix rule applies to it.
			if !strings.Contains(pkgPath, "/internal/") && !strings.Contains(pkgPath, "/cmd/") &&
				!strings.HasPrefix(pkgPath, "internal/") && !strings.HasPrefix(pkgPath, "cmd/") &&
				!strings.Contains(pkgPath, "/examples/") && !strings.HasPrefix(pkgPath, "examples/") {
				return true
			}
			continue
		}
		if pkgPath == suf || strings.HasSuffix(pkgPath, "/"+suf) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass, cfg Config) {
	pkgPath := pass.Pkg.Path()
	isMain := pass.Pkg.Name() == "main"

	fileIOPkg := isMain || pathAllowed(pkgPath, cfg.FileIOPackages)
	syscallPkg := pathAllowed(pkgPath, cfg.SyscallPackages)
	codecPkg := pathAllowed(pkgPath, cfg.CodecUsers)
	goPkg := isMain || pathAllowed(pkgPath, cfg.GoroutinePackages)

	for _, file := range pass.Files {
		fileName := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		fileIOOK := fileIOPkg || inRootGlueFile(pkgPath, fileName, cfg)

		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if (p == cfg.DiskPath || strings.HasSuffix(p, "/"+cfg.DiskPath)) &&
				!isMain && !pathAllowed(pkgPath, cfg.DiskImporters) {
				pass.Reportf(imp.Pos(),
					"package %s imports %s: block I/O belongs below Options.Backend; add the package to contracts.DiskImporters only if it implements the storage layer",
					pkgPath, p)
			}
			if p == "syscall" && !syscallPkg {
				pass.Reportf(imp.Pos(),
					"package %s imports syscall: only the storage layer (%v) touches the syscall line",
					pkgPath, cfg.SyscallPackages)
			}
		}

		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !goPkg {
				pass.Reportf(g.Pos(),
					"go statement in package %s: run concurrent work through parallel.Do (allowed: %v and main packages)",
					pkgPath, cfg.GoroutinePackages)
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgName, symbol, ok := qualifiedRef(pass.Info, sel)
			if !ok {
				return true
			}
			switch {
			case pkgName == "os" && cfg.FileIOFuncs[symbol] && !fileIOOK:
				pass.Reportf(sel.Pos(),
					"os.%s outside the storage layer: file I/O goes through Options.Backend (allowed: %v, main packages, and %v in the root package)",
					symbol, cfg.FileIOPackages, cfg.FileIORootFiles)
			case pkgName == "syscall" && !syscallPkg:
				pass.Reportf(sel.Pos(),
					"syscall.%s outside the storage layer: only %v may cross the syscall line",
					symbol, cfg.SyscallPackages)
			case isCodecRef(pkgName, symbol, cfg) && !codecPkg:
				pass.Reportf(sel.Pos(),
					"%s.%s outside the codec's owners: raw postings bytes flow only through Options.Codec (allowed: %v)",
					pkgName, symbol, cfg.CodecUsers)
			}
			return true
		})
	}
}

func isCodecRef(pkgName, symbol string, cfg Config) bool {
	return pkgName == filepath.Base(cfg.CodecPath) && cfg.CodecSymbols[symbol]
}

// inRootGlueFile reports whether this is one of the root package's named
// file-backend glue files.
func inRootGlueFile(pkgPath, fileName string, cfg Config) bool {
	if !pathAllowed(pkgPath, []string{""}) {
		return false
	}
	for _, f := range cfg.FileIORootFiles {
		if f == fileName {
			return true
		}
	}
	return false
}

// qualifiedRef resolves a selector of the form pkg.Symbol to its package
// name and symbol name (only for package-qualified references, not field or
// method selections).
func qualifiedRef(info *types.Info, sel *ast.SelectorExpr) (pkg, symbol string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Name(), sel.Sel.Name, true
}
