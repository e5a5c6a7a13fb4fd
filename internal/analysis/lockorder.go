package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockClass names one mutex in the documented lock order: the named
// type owning it, the field path from that type (possibly through
// anonymous structs, e.g. "comp.mu") and its rank. A lock of rank a
// must never be acquired while a lock of rank b > a is held; locks the
// config does not name are ignored entirely. Instance identity is not
// tracked: two Stores' stripe locks are one class, and re-acquiring a
// held class is not reported.
type LockClass struct {
	Name    string // short name used in messages, e.g. "writeMu"
	PkgPath string // package declaring the owner type
	Type    string // owner type name, e.g. "Reasoner"
	Field   string // field path from the owner, e.g. "mu" or "comp.mu"
	Rank    int    // ascending = outermost first
}

// LockOrder flags acquisitions of the configured mutex classes that
// violate their rank order — directly within a function, or through
// one level of call indirection (a call made while locks are held,
// into a function whose body acquires a lower-ranked class).
//
// The analysis is per function body, linear in source order: Lock and
// RLock add the class to the held set, Unlock and RUnlock remove it,
// deferred unlocks hold to the end of the function. Function literals
// are analyzed as separate functions (they may run under a different
// lock regime than their enclosing function).
type LockOrder struct {
	Classes []LockClass

	byKey map[string]*LockClass // "pkgpath.Type\x00field.path"
}

func (c *LockOrder) Name() string { return "lockorder" }

func classKey(typeKey, fieldPath string) string { return typeKey + "\x00" + fieldPath }

type lockEvent struct {
	pos   token.Pos
	kind  int // 0 acquire, 1 release, 2 call
	class *LockClass
	fn    funcRef // kind 2: callee
}

type funcRef struct {
	key  string // funcKey of the callee
	desc string // rendered name for messages
}

func (c *LockOrder) Check(prog *Program) []Diagnostic {
	c.byKey = make(map[string]*LockClass, len(c.Classes))
	for i := range c.Classes {
		cl := &c.Classes[i]
		c.byKey[classKey(cl.PkgPath+"."+cl.Type, cl.Field)] = cl
	}

	// Pass 1: per-function events plus each function's direct
	// acquisition summary (for the one-level indirection check).
	type funcBody struct {
		pkg    *Package
		events []lockEvent
	}
	bodies := map[string]*funcBody{}
	summaries := map[string][]*LockClass{}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				for i, ev := range c.collectBodies(prog, pkg, fd) {
					if len(ev) == 0 {
						continue
					}
					fb := &funcBody{pkg: pkg, events: ev}
					if i == 0 {
						// The named function itself: addressable as a
						// call target for the indirection check.
						key := funcKeyOfDecl(pkg, fd)
						bodies[key] = fb
						summaries[key] = summarize(ev)
					} else {
						// Function literals are analyzed under their own
						// (unaddressable) keys: they may run under a
						// different lock regime than their enclosing
						// function, and their acquisitions must not leak
						// into its summary.
						bodies[pkg.Path+"\x00lit\x00"+prog.Fset.Position(ev[0].pos).String()] = fb
					}
				}
			}
		}
	}

	var out []Diagnostic
	for _, fb := range bodies {
		out = append(out, c.simulate(prog, fb.pkg, fb.events, summaries)...)
	}
	return out
}

// collectBodies gathers the lock events of fd's body and of every
// function literal within it, each as a separate event list (the
// enclosing function's list first). Lists with no events are dropped.
func (c *LockOrder) collectBodies(prog *Program, pkg *Package, fd *ast.FuncDecl) [][]lockEvent {
	var lists [][]lockEvent
	var walk func(body ast.Node, deferred bool) []lockEvent
	walk = func(body ast.Node, _ bool) []lockEvent {
		var events []lockEvent
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n.Body != nil && body != n.Body {
					if ev := walk(n.Body, false); len(ev) > 0 {
						lists = append(lists, ev)
					}
					return false
				}
			case *ast.DeferStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && lit.Body != nil {
					if ev := walk(lit.Body, false); len(ev) > 0 {
						lists = append(lists, ev)
					}
					return false
				}
				// A deferred unlock keeps the lock held to the end; a
				// deferred call still runs in this function. Record
				// acquire/call events but not releases.
				for _, ev := range c.callEvents(prog, pkg, n.Call) {
					if ev.kind != 1 {
						events = append(events, ev)
					}
				}
				return false
			case *ast.CallExpr:
				events = append(events, c.callEvents(prog, pkg, n)...)
			}
			return true
		})
		sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
		return events
	}
	enclosing := walk(fd.Body, false)
	return append([][]lockEvent{enclosing}, lists...)
}

// callEvents classifies one call expression: a Lock/RLock of a
// configured class, an Unlock/RUnlock of one, or a call into a
// function declared in the program.
func (c *LockOrder) callEvents(prog *Program, pkg *Package, call *ast.CallExpr) []lockEvent {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if cl := c.classify(pkg, sel.X); cl != nil {
				return []lockEvent{{pos: call.Pos(), kind: 0, class: cl}}
			}
		case "Unlock", "RUnlock":
			if cl := c.classify(pkg, sel.X); cl != nil {
				return []lockEvent{{pos: call.Pos(), kind: 1, class: cl}}
			}
		}
	}
	if fn := staticCallee(pkg.Info, call); fn != nil {
		if _, decl := prog.FuncDecl(fn); decl != nil {
			return []lockEvent{{
				pos:  call.Pos(),
				kind: 2,
				fn:   funcRef{key: funcKey(fn), desc: describeFunc(fn, pkg.Types)},
			}}
		}
	}
	return nil
}

// classify resolves a mutex expression (the X of X.Lock()) to its
// configured class: the field path is accumulated through anonymous
// structs until a named owner type is reached.
func (c *LockOrder) classify(pkg *Package, e ast.Expr) *LockClass {
	var fields []string
	cur := ast.Unparen(e)
	for {
		sel, ok := cur.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		fields = append([]string{sel.Sel.Name}, fields...)
		base := ast.Unparen(sel.X)
		tv, ok := pkg.Info.Types[base]
		if !ok {
			return nil
		}
		if key := typeKey(tv.Type); key != "" {
			return c.byKey[classKey(key, strings.Join(fields, "."))]
		}
		cur = base
	}
}

// summarize returns the distinct classes an event list acquires.
func summarize(events []lockEvent) []*LockClass {
	var out []*LockClass
	seen := map[*LockClass]bool{}
	for _, ev := range events {
		if ev.kind == 0 && !seen[ev.class] {
			seen[ev.class] = true
			out = append(out, ev.class)
		}
	}
	return out
}

// simulate runs the linear held-set simulation over one body's events.
func (c *LockOrder) simulate(prog *Program, pkg *Package, events []lockEvent, summaries map[string][]*LockClass) []Diagnostic {
	var out []Diagnostic
	held := map[*LockClass]int{}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			for h, n := range held {
				if n > 0 && h != ev.class && ev.class.Rank < h.Rank {
					out = append(out, diag(prog, c.Name(), ev.pos,
						"acquires %s while holding %s (documented order: %s before %s)",
						ev.class.Name, h.Name, ev.class.Name, h.Name))
				}
			}
			held[ev.class]++
		case 1:
			if held[ev.class] > 0 {
				held[ev.class]--
			}
		case 2:
			summary := summaries[ev.fn.key]
			if len(summary) == 0 {
				continue
			}
			for _, acq := range summary {
				for h, n := range held {
					if n > 0 && h != acq && acq.Rank < h.Rank {
						out = append(out, diag(prog, c.Name(), ev.pos,
							"call to %s acquires %s while holding %s (documented order: %s before %s)",
							ev.fn.desc, acq.Name, h.Name, acq.Name, h.Name))
					}
				}
			}
		}
	}
	return out
}

// funcKeyOfDecl computes the funcKey of a declared function.
func funcKeyOfDecl(pkg *Package, fd *ast.FuncDecl) string {
	if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return funcKey(fn)
	}
	return ""
}
