package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// HotFunc names one function on the hot-path allowlist.
type HotFunc struct {
	Pkg  string // package path
	Recv string // receiver type name ("" for plain functions)
	Name string
}

// HotPath enforces the ingest/join/WAL-append latency discipline in an
// explicit allowlist of hot functions: no bare time.Now() (timing must
// go through obs.NowIfEnabled, the one clock entry for measured paths),
// no fmt.Sprintf (fmt.Errorf on cold error returns is fine),
// and no Term.String() (the dictionary decode + allocation belongs in
// cold presentation paths). Function literals inside a hot function
// are checked too — they run on the same path.
type HotPath struct {
	Hot []HotFunc
	// StringerKey is the typeKey of the type whose String() is banned,
	// e.g. "repro/internal/rdf.Term".
	StringerKey string
}

func (c *HotPath) Name() string { return "hotpath" }

func (c *HotPath) Check(prog *Program) []Diagnostic {
	hot := make(map[string]bool, len(c.Hot))
	for _, h := range c.Hot {
		key := h.Pkg + "." + h.Name
		if h.Recv != "" {
			key = fmt.Sprintf("%s.(%s).%s", h.Pkg, h.Recv, h.Name)
		}
		hot[key] = true
	}
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || !hot[funcKey(fn)] {
					continue
				}
				out = append(out, c.checkBody(prog, pkg, fd)...)
			}
		}
	}
	return out
}

func (c *HotPath) checkBody(prog *Program, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Method call: Term.String().
		if s, ok := pkg.Info.Selections[sel]; ok {
			if sel.Sel.Name == "String" && typeKey(s.Recv()) == c.StringerKey {
				out = append(out, diag(prog, c.Name(), call.Pos(),
					"Term.String() on hot path %s: decode/format work belongs in cold presentation paths", fd.Name.Name))
			}
			return true
		}
		// Package-qualified call.
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "time" && fn.Name() == "Now":
			out = append(out, diag(prog, c.Name(), call.Pos(),
				"bare time.Now() on hot path %s: use obs.NowIfEnabled, the one clock entry for measured paths", fd.Name.Name))
		case fn.Pkg().Path() == "fmt" && fn.Name() == "Sprintf":
			out = append(out, diag(prog, c.Name(), call.Pos(),
				"fmt.Sprintf on hot path %s: formatting allocates; move it off the hot path", fd.Name.Name))
		}
		return true
	})
	return out
}
