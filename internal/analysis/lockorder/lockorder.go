// Package lockorder enforces the engine's documented lock hierarchy
// (contracts.LockHierarchy): within any one function, locks must be
// acquired in strictly increasing rank order — reshardMu before stateMu
// before the engine mu before the per-shard flushMu and mu before the disk
// layer's locks. TryLock and TryRLock count as acquisitions like any other.
//
// The analysis is intra-procedural and linear: it walks each function body
// in source order, tracking a held-set keyed by the lock's class (resolved
// through go/types to the owning struct's field) and its spelled instance.
// An explicit Unlock releases; a deferred Unlock holds to function end.
// That is deliberately conservative — it cannot see cross-function
// nesting — but every documented ordering in this engine is visible within
// one function, and the golden tests pin the shapes it must catch.
package lockorder

import (
	"go/ast"
	"go/types"

	"dualindex/internal/analysis/contracts"
	"dualindex/internal/analysis/framework"
)

// Analyzer checks the repo's lock hierarchy.
var Analyzer = NewAnalyzer(contracts.LockHierarchy)

// NewAnalyzer builds a lockorder analyzer over the given hierarchy table
// (tests supply reduced tables; the repo uses contracts.LockHierarchy).
func NewAnalyzer(hierarchy []contracts.Mutex) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "lockorder",
		Doc:  "enforce the reshardMu → stateMu → mu → flushMu → shard mu → disk lock hierarchy",
		Run: func(pass *framework.Pass) error {
			run(pass, hierarchy)
			return nil
		},
	}
}

// lockMethods classifies the sync.Mutex/RWMutex method names.
var lockMethods = map[string]struct{ acquire, release bool }{
	"Lock":     {acquire: true},
	"RLock":    {acquire: true},
	"TryLock":  {acquire: true},
	"TryRLock": {acquire: true},
	"Unlock":   {release: true},
	"RUnlock":  {release: true},
}

// A held entry is one lock currently held at this point of the walk.
type held struct {
	class    contracts.Mutex
	instance string // spelled receiver, e.g. "e.stateMu" or "a.freeMu[d]"
}

func run(pass *framework.Pass, hierarchy []contracts.Mutex) {
	classOf := func(pkg, typ, field string) (contracts.Mutex, bool) {
		for _, m := range hierarchy {
			if m.Pkg == pkg && m.Type == typ && m.Field == field {
				return m, true
			}
		}
		return contracts.Mutex{}, false
	}
	for _, file := range pass.Files {
		for _, body := range functionBodies(file) {
			checkBody(pass, body, classOf)
		}
	}
}

// functionBodies yields every function body in the file — declarations and
// function literals alike — each analyzed as its own scope. A literal's
// body is excluded from its enclosing function's walk: goroutine and
// closure bodies run under their own control flow.
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		case *ast.FuncLit:
			out = append(out, n.Body)
		}
		return true
	})
	return out
}

func checkBody(pass *framework.Pass, body *ast.BlockStmt, classOf func(pkg, typ, field string) (contracts.Mutex, bool)) {
	// Calls that are the operand of a defer run at function exit: a deferred
	// Unlock keeps the lock held for the rest of the walk.
	deferred := map[*ast.CallExpr]bool{}
	var heldSet []held

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // analyzed as its own scope
		case *ast.DeferStmt:
			deferred[n.Call] = true
			walk(n.Call)
			return
		case *ast.CallExpr:
			walk(n.Fun)
			for _, a := range n.Args {
				walk(a)
			}
			cls, instance, method, ok := resolveLockCall(pass.Info, n, classOf)
			if !ok {
				return
			}
			m := lockMethods[method]
			switch {
			case m.release:
				if deferred[n] {
					return // held to function end
				}
				for i := len(heldSet) - 1; i >= 0; i-- {
					if heldSet[i].instance == instance {
						heldSet = append(heldSet[:i], heldSet[i+1:]...)
						break
					}
				}
			case m.acquire:
				for _, h := range heldSet {
					if h.instance == instance {
						continue // re-spelling of a lock the walk already saw
					}
					if cls.Rank <= h.class.Rank {
						pass.Reportf(n.Pos(),
							"%s.%s.%s (rank %d) acquired while holding %s.%s.%s (rank %d): violates the lock hierarchy (acquire in increasing rank order)",
							cls.Pkg, cls.Type, cls.Field, cls.Rank,
							h.class.Pkg, h.class.Type, h.class.Field, h.class.Rank)
					}
				}
				heldSet = append(heldSet, held{class: cls, instance: instance})
			}
			return
		}
		// Generic traversal in source order for everything else.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c)
			return false
		})
	}
	walk(body)
}

// resolveLockCall matches a call of the shape <expr>.<LockMethod>() where
// <expr> resolves to a struct field listed in the hierarchy. It returns the
// lock's class, its spelled instance, and the method name.
func resolveLockCall(info *types.Info, call *ast.CallExpr, classOf func(pkg, typ, field string) (contracts.Mutex, bool)) (contracts.Mutex, string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return contracts.Mutex{}, "", "", false
	}
	method := sel.Sel.Name
	if _, known := lockMethods[method]; !known {
		return contracts.Mutex{}, "", "", false
	}
	// Unwrap the mutex expression: a field selector, possibly indexed
	// (per-disk lock slices like a.freeMu[d] or s.mu[disk]).
	x := sel.X
	if idx, ok := x.(*ast.IndexExpr); ok {
		x = idx.X
	}
	fieldSel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return contracts.Mutex{}, "", "", false
	}
	s, ok := info.Selections[fieldSel]
	if !ok || s.Kind() != types.FieldVal {
		return contracts.Mutex{}, "", "", false
	}
	owner := namedRecv(s.Recv())
	if owner == nil || owner.Obj().Pkg() == nil {
		return contracts.Mutex{}, "", "", false
	}
	cls, ok := classOf(owner.Obj().Pkg().Name(), owner.Obj().Name(), s.Obj().Name())
	if !ok {
		return contracts.Mutex{}, "", "", false
	}
	return cls, types.ExprString(sel.X), method, true
}

// namedRecv unwraps pointers and aliases to the named type a selection's
// receiver is declared on.
func namedRecv(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return nil
		}
	}
}
