package analysis

import "go/ast"

// RunImmutable enforces the LSM store's publish-then-never-mutate rule:
// once a run is built, its index arrays are immutable — frozen views,
// lock-free readers and checkpoint streams all alias them. Writes to
// any configured field of the run type or of a part type the run holds
// (plain assignment, index assignment, or append-into) are flagged
// outside the blessed constructor/merge functions, and in-place element
// assignment to the partition's run slice is flagged everywhere (run
// slices are replaced wholesale, never patched).
type RunImmutable struct {
	PkgPath   string          // package declaring the run type
	RunType   string          // e.g. "run"
	PartTypes []string        // types a run holds by value, e.g. "direction"
	Fields    map[string]bool // protected field names, of any of those types
	Blessed   map[string]bool // function names allowed to build runs
	RunsSlice struct {        // optional: the type+field holding []*run
		Type, Field string
	}
}

func (c *RunImmutable) Name() string { return "runimmutable" }

func (c *RunImmutable) Check(prog *Program) []Diagnostic {
	pkg := prog.Package(c.PkgPath)
	if pkg == nil {
		return nil
	}
	protected := map[string]bool{c.PkgPath + "." + c.RunType: true}
	for _, t := range c.PartTypes {
		protected[c.PkgPath+"."+t] = true
	}
	var out []Diagnostic
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			blessed := c.Blessed[fd.Name.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if d := c.checkLHS(prog, pkg, fd, lhs, protected, blessed); d != nil {
							out = append(out, *d)
						}
					}
				case *ast.CallExpr:
					if blessed {
						return true
					}
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
						if field := c.runField(pkg, n.Args[0], protected); field != "" {
							out = append(out, diag(prog, c.Name(), n.Pos(),
								"append into %s outside blessed constructors (%s): runs are immutable once published",
								field, fd.Name.Name))
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// checkLHS flags a write through an assignment left-hand side.
func (c *RunImmutable) checkLHS(prog *Program, pkg *Package, fd *ast.FuncDecl, lhs ast.Expr, protected map[string]bool, blessed bool) *Diagnostic {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if blessed {
			return nil
		}
		if field := c.runField(pkg, lhs, protected); field != "" {
			d := diag(prog, c.Name(), lhs.Pos(),
				"assignment to %s outside blessed constructors (%s): runs are immutable once published",
				field, fd.Name.Name)
			return &d
		}
	case *ast.IndexExpr:
		inner := ast.Unparen(lhs.X)
		sel, ok := inner.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if !blessed {
			if field := c.runField(pkg, sel, protected); field != "" {
				d := diag(prog, c.Name(), lhs.Pos(),
					"element assignment to %s outside blessed constructors (%s): runs are immutable once published",
					field, fd.Name.Name)
				return &d
			}
		}
		// p.runs[i] = ... is forbidden everywhere: the slice is
		// replaced wholesale so captured headers stay valid.
		if c.RunsSlice.Field != "" && sel.Sel.Name == c.RunsSlice.Field {
			if tv, ok := pkg.Info.Types[sel.X]; ok &&
				typeKey(tv.Type) == c.PkgPath+"."+c.RunsSlice.Type {
				d := diag(prog, c.Name(), lhs.Pos(),
					"in-place element assignment to %s.%s: run slices are replaced wholesale, never patched",
					c.RunsSlice.Type, c.RunsSlice.Field)
				return &d
			}
		}
	}
	return nil
}

// runField reports the protected field as "type.field" when e is a
// selector of a protected field on a protected type ("" otherwise).
func (c *RunImmutable) runField(pkg *Package, e ast.Expr, protected map[string]bool) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !c.Fields[sel.Sel.Name] {
		return ""
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || !protected[typeKey(tv.Type)] {
		return ""
	}
	return namedOf(tv.Type).Obj().Name() + "." + sel.Sel.Name
}
