package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"kdash/tools/kdashvet/internal/framework"
)

// Determinism enforces the bit-identical solve schedule: starting from
// every function annotated //kdash:deterministic, it walks the
// same-package static call graph and reports constructs whose result
// depends on something other than the inputs:
//
//   - ranging over a map (iteration order is randomized per run, and a
//     float accumulation seeded in map order drifts bits)
//   - reading the wall clock (time.Now / Since / Until)
//   - math/rand and math/rand/v2 (unseeded or global-state randomness)
//
// The solve/rank path is differential-tested bit-identical against the
// one-shard index and pinned rebuilds; any of these constructs breaks
// that contract silently. Deliberate uses (wall-clock feeding only a
// trace block, for example) carry //kdash:allow(determinism) with a
// justification.
var Determinism = &framework.Analyzer{
	Name: "determinism",
	Doc:  "forbids map iteration, wall clocks and math/rand in //kdash:deterministic call graphs",
	Run:  runDeterminism,
}

func runDeterminism(pass *framework.Pass) error {
	decls := funcDecls(pass)

	// Roots: annotated functions, in file order for stable reporting.
	type root struct {
		fn *types.Func
		fd *ast.FuncDecl
	}
	var roots []root
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !framework.FuncDirectives(fd)["deterministic"] {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				roots = append(roots, root{obj, fd})
			}
		}
	}

	visited := map[*types.Func]bool{}
	var visit func(fn *types.Func, fd *ast.FuncDecl, rootName string)
	visit = func(fn *types.Func, fd *ast.FuncDecl, rootName string) {
		if visited[fn] {
			return
		}
		visited[fn] = true
		via := ""
		if fd.Name.Name != rootName {
			via = " (reached from //kdash:deterministic " + rootName + ")"
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypesInfo.Types[n.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "range over map has randomized order in deterministic function %s%s: iterate a sorted key slice instead", fd.Name.Name, via)
					}
				}
			case *ast.CallExpr:
				callee := calleeFunc(pass.TypesInfo, n)
				if callee == nil {
					return true
				}
				switch pkgPathOf(callee) {
				case "time":
					switch callee.Name() {
					case "Now", "Since", "Until":
						pass.Reportf(n.Pos(), "wall-clock read time.%s in deterministic function %s%s", callee.Name(), fd.Name.Name, via)
					}
				case "math/rand", "math/rand/v2":
					pass.Reportf(n.Pos(), "randomness from %s in deterministic function %s%s", callee.FullName(), fd.Name.Name, via)
				case pass.Pkg.Path():
					if calleeDecl, ok := decls[callee]; ok && calleeDecl.Body != nil {
						visit(callee, calleeDecl, rootName)
					}
				}
			}
			return true
		})
	}

	for _, r := range roots {
		visit(r.fn, r.fd, r.fd.Name.Name)
	}
	return nil
}

// methodNameContains is a tiny helper kept close to its only callers in
// ctxcancel; it reports whether a call's callee name contains any of the
// fragments (case-insensitive).
func callNameContains(info *types.Info, call *ast.CallExpr, fragments ...string) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	name := strings.ToLower(fn.Name())
	for _, f := range fragments {
		if strings.Contains(name, f) {
			return true
		}
	}
	return false
}
