package analyzers

import (
	"go/ast"
	"go/types"

	"kdash/tools/kdashvet/internal/framework"
)

// ROFactors enforces the read-only factor-array contract: struct fields
// annotated //kdash:readonly (the LU factor arrays, the index's inverse
// factors and permutations) must never be assigned to, written through,
// appended to, copied into or cleared outside functions annotated
// //kdash:mutates-factors (the constructor / serialization allowlist).
// In a loaded index these arrays alias a sealed PROT_READ copy of the
// index file, so a stray write is a production segfault, not a wrong
// answer. Local aliases of a
// read-only chain (v := f.lVal) inherit the taint within the function.
var ROFactors = &framework.Analyzer{
	Name: "rofactors",
	Doc:  "forbids writes into //kdash:readonly factor arrays outside //kdash:mutates-factors functions",
	Run:  runROFactors,
}

func runROFactors(pass *framework.Pass) error {
	readonly := collectReadonlyFields(pass)
	if len(readonly) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if framework.FuncDirectives(fd)["mutates-factors"] {
				continue // constructor/serialization allowlist
			}
			checkReadonly(pass, fd, readonly)
		}
	}
	return nil
}

// collectReadonlyFields gathers the field objects annotated
// //kdash:readonly across the package's struct declarations.
func collectReadonlyFields(pass *framework.Pass) map[*types.Var]bool {
	ro := map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !framework.FieldDirectives(field)["readonly"] {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						ro[v] = true
					}
				}
			}
			return true
		})
	}
	return ro
}

type roChecker struct {
	pass     *framework.Pass
	info     *types.Info
	fd       *ast.FuncDecl
	readonly map[*types.Var]bool
	// tainted marks locals whose value aliases a read-only chain.
	tainted map[*types.Var]bool
}

func checkReadonly(pass *framework.Pass, fd *ast.FuncDecl, readonly map[*types.Var]bool) {
	c := &roChecker{pass: pass, info: pass.TypesInfo, fd: fd, readonly: readonly, tainted: map[*types.Var]bool{}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				// Rebinding a bare local is harmless; writes through a
				// chain (x.f = …, x.f[i] = …, v[i] = …) are not.
				if _, isIdent := ast.Unparen(l).(*ast.Ident); isIdent {
					continue
				}
				if field, ok := c.chainReadonly(l); ok {
					c.pass.Reportf(l.Pos(), "write into read-only factor array %s (a write to a loaded factor segfaults in its sealed PROT_READ copy; move construction into a //kdash:mutates-factors function)", field)
				}
			}
			// Taint propagation: v := f.lVal (or a reslice of it) aliases
			// the backing array. Only reference-typed results alias;
			// element reads copy.
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if v, ok := c.info.Defs[id].(*types.Var); ok && aliasesBacking(v.Type()) {
							if _, ro := c.chainReadonly(n.Rhs[i]); ro || c.exprTainted(n.Rhs[i]) {
								c.tainted[v] = true
							}
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if field, ok := c.chainReadonly(n.X); ok {
				c.pass.Reportf(n.X.Pos(), "increment of read-only factor array %s", field)
			}
		case *ast.UnaryExpr:
			// &f.lVal[i] escapes a writable pointer into the backing.
			if n.Op.String() == "&" {
				if _, isIdent := ast.Unparen(n.X).(*ast.Ident); !isIdent {
					if field, ok := c.chainReadonly(n.X); ok {
						c.pass.Reportf(n.Pos(), "taking a writable pointer into read-only factor array %s", field)
					}
				}
			}
		case *ast.CallExpr:
			c.call(n)
		}
		return true
	})
}

func (c *roChecker) call(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	b, ok := c.info.Uses[id].(*types.Builtin)
	if !ok {
		return
	}
	switch b.Name() {
	case "append":
		if len(call.Args) > 0 {
			if field, ok := c.chainReadonly(call.Args[0]); ok {
				c.pass.Reportf(call.Pos(), "append into read-only factor array %s (may write into the sealed PROT_READ copy when capacity allows)", field)
			}
		}
	case "copy", "clear":
		if len(call.Args) > 0 {
			if field, ok := c.chainReadonly(call.Args[0]); ok {
				c.pass.Reportf(call.Pos(), "%s writes into read-only factor array %s", b.Name(), field)
			}
		}
	}
}

// chainReadonly walks a selector/index chain and reports the first
// //kdash:readonly field it crosses (so inv.Linv.Val[i] is caught via
// the annotated Linv even though Val itself is unannotated).
func (c *roChecker) chainReadonly(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if v, ok := c.info.Uses[e.Sel].(*types.Var); ok && c.readonly[v] {
			return v.Name(), true
		}
		return c.chainReadonly(e.X)
	case *ast.IndexExpr:
		return c.chainReadonly(e.X)
	case *ast.SliceExpr:
		return c.chainReadonly(e.X)
	case *ast.StarExpr:
		return c.chainReadonly(e.X)
	case *ast.Ident:
		if v, ok := c.info.Uses[e].(*types.Var); ok && c.tainted[v] {
			return e.Name + " (alias of a read-only factor array)", true
		}
	}
	return "", false
}

// aliasesBacking reports whether a value of type t shares backing store
// with its source (slices and pointers do; scalars and structs copy).
func aliasesBacking(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer:
		return true
	}
	return false
}

// exprTainted reports whether an expression derives from a tainted local
// (one more level of aliasing: u := v[:n]).
func (c *roChecker) exprTainted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return c.exprTainted(e.X)
	case *ast.IndexExpr:
		return c.exprTainted(e.X)
	case *ast.Ident:
		v, ok := c.info.Uses[e].(*types.Var)
		return ok && c.tainted[v]
	}
	return false
}
