package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current checker output")

// runFixture loads testdata/src/<name> as a standalone package, runs
// the checker and compares the rendered diagnostics (paths relative to
// the fixture directory, so goldens are machine-independent) against
// testdata/<name>.golden.
func runFixture(t *testing.T, name string, checker Checker) {
	t.Helper()
	runFixtureAs(t, name, "fixture/"+name, checker)
}

// runFixtureAs is runFixture with the package loaded under pkgPath.
func runFixtureAs(t *testing.T, name, pkgPath string, checker Checker) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	prog, err := LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	var lines []string
	for _, d := range Run(prog, []Checker{checker}) {
		lines = append(lines, d.Rel(dir))
	}
	got := strings.Join(lines, "\n")
	if got != "" {
		got += "\n"
	}
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, "lockorder", &LockOrder{Classes: []LockClass{
		{Name: "outerMu", PkgPath: "fixture/lockorder", Type: "S", Field: "outer", Rank: 10},
		{Name: "innerMu", PkgPath: "fixture/lockorder", Type: "S", Field: "inner", Rank: 20},
	}})
}

// TestDefaultLockOrderRanksDictionary runs the default lock table over
// a stand-in for the dictionary: seqMu → stripe lock must be flagged.
func TestDefaultLockOrderRanksDictionary(t *testing.T) {
	runFixtureAs(t, "dictlocks", "fixture/internal/rdf", DefaultCheckers("fixture")[0])
}

func TestExclusiveWindowFixture(t *testing.T) {
	runFixture(t, "exclusivewindow", &ExclusiveWindow{
		RootPkg:  "fixture/exclusivewindow",
		RootType: "Pass",
		RootFunc: "Apply",
	})
}

func TestRunImmutableFixture(t *testing.T) {
	c := &RunImmutable{
		PkgPath:   "fixture/runimmutable",
		RunType:   "run",
		PartTypes: []string{"dir"},
		Fields:    map[string]bool{"subs": true, "objs": true, "keys": true},
		Blessed:   map[string]bool{"buildRun": true},
	}
	c.RunsSlice.Type = "partition"
	c.RunsSlice.Field = "runs"
	runFixture(t, "runimmutable", c)
}

func TestHotPathFixture(t *testing.T) {
	runFixture(t, "hotpath", &HotPath{
		StringerKey: "fixture/hotpath.Term",
		Hot: []HotFunc{
			{Pkg: "fixture/hotpath", Recv: "engine", Name: "route"},
			{Pkg: "fixture/hotpath", Recv: "engine", Name: "deliver"},
			{Pkg: "fixture/hotpath", Recv: "engine", Name: "startSpan"},
		},
	})
}

func TestSpanNamesFixture(t *testing.T) {
	runFixture(t, "spannames", &SpanNames{
		Funcs: []SpanFunc{
			{Pkg: "fixture/spannames", Name: "Start", Arg: 1},
			{Pkg: "fixture/spannames", Name: "StartRoot", Arg: 0},
		},
		Methods: []SpanMethod{
			{RecvKey: "fixture/spannames.Span", Name: "Child", Arg: 0},
		},
	})
}

func TestMetricNamesFixture(t *testing.T) {
	runFixture(t, "metricnames", &MetricNames{
		RegistryKey: "fixture/metricnames.Registry",
		Methods: map[string]string{
			"Counter": "counter", "Gauge": "gauge", "Histogram": "histogram",
		},
		Prefix:            "slider_",
		HistogramSuffixes: HistogramUnitSuffixes,
	})
}

// loadTree loads the real module, returning it with its root directory
// and module path.
func loadTree(t *testing.T) (prog *Program, root, modPath string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err = LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	modPath = prog.Pkgs[0].Path
	for _, p := range prog.Pkgs {
		if len(p.Path) < len(modPath) {
			modPath = p.Path
		}
	}
	return prog, root, modPath
}

// TestTreeIsClean is the meta-test: the real module must produce zero
// diagnostics under the default configuration — the same invocation CI
// runs via cmd/slidervet.
func TestTreeIsClean(t *testing.T) {
	prog, root, modPath := loadTree(t)
	for _, d := range Run(prog, DefaultCheckers(modPath)) {
		t.Errorf("unexpected diagnostic: %s", d.Rel(root))
	}
}

// TestDefaultConfigResolves checks that every declaration the default
// configuration names exists in the module: a lock class whose field
// was deleted, or a hot or blessed function that was renamed, would
// otherwise match nothing and pass silently.
func TestDefaultConfigResolves(t *testing.T) {
	prog, _, modPath := loadTree(t)
	for _, c := range DefaultCheckers(modPath) {
		switch c := c.(type) {
		case *LockOrder:
			for _, cl := range c.Classes {
				if err := resolveMutex(prog, cl); err != nil {
					t.Errorf("lock class %s: %v", cl.Name, err)
				}
			}
		case *HotPath:
			for _, h := range c.Hot {
				if !declaredFunc(prog, h.Pkg, h.Recv, h.Name) {
					t.Errorf("hot function %s (receiver %q) in %s is not declared", h.Name, h.Recv, h.Pkg)
				}
			}
		case *RunImmutable:
			for name := range c.Blessed {
				if !declaredName(prog, c.PkgPath, name) {
					t.Errorf("blessed function %s in %s is not declared", name, c.PkgPath)
				}
			}
		}
	}
}

// resolveMutex follows the lock class's field path from its owner type
// and reports an error unless it ends at a sync.Mutex or sync.RWMutex.
func resolveMutex(prog *Program, cl LockClass) error {
	pkg := prog.Package(cl.PkgPath)
	if pkg == nil {
		return fmt.Errorf("package %s not loaded", cl.PkgPath)
	}
	owner, ok := pkg.Types.Scope().Lookup(cl.Type).(*types.TypeName)
	if !ok {
		return fmt.Errorf("no type %s in %s", cl.Type, cl.PkgPath)
	}
	typ := owner.Type()
	for _, name := range strings.Split(cl.Field, ".") {
		st, ok := typ.Underlying().(*types.Struct)
		if !ok {
			return fmt.Errorf("%s: %s is not a struct", cl.Field, typ)
		}
		typ = nil
		for i := range st.NumFields() {
			if f := st.Field(i); f.Name() == name {
				typ = f.Type()
			}
		}
		if typ == nil {
			return fmt.Errorf("no field %s on %s", cl.Field, cl.Type)
		}
	}
	if n, ok := typ.(*types.Named); !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" ||
		n.Obj().Name() != "Mutex" && n.Obj().Name() != "RWMutex" {
		return fmt.Errorf("%s.%s is a %s, not a sync.Mutex or sync.RWMutex", cl.Type, cl.Field, typ)
	}
	return nil
}

// declaredFunc reports whether package pkgPath declares, with a body,
// the function name — a method of type recv when recv is set.
func declaredFunc(prog *Program, pkgPath, recv, name string) bool {
	pkg := prog.Package(pkgPath)
	if pkg == nil {
		return false
	}
	if recv == "" {
		fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
		return ok && hasBody(prog, fn)
	}
	tn, ok := pkg.Types.Scope().Lookup(recv).(*types.TypeName)
	if !ok {
		return false
	}
	n, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := range n.NumMethods() {
		if m := n.Method(i); m.Name() == name {
			return hasBody(prog, m)
		}
	}
	return false
}

func hasBody(prog *Program, fn *types.Func) bool {
	_, decl := prog.FuncDecl(fn)
	return decl != nil
}

// declaredName reports whether package pkgPath declares a function or
// method called name (the blessed list names either).
func declaredName(prog *Program, pkgPath, name string) bool {
	pkg := prog.Package(pkgPath)
	if pkg == nil {
		return false
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}

// TestLoadModuleShape sanity-checks the loader: the module root and the
// packages the checkers key on must all be present.
func TestLoadModuleShape(t *testing.T) {
	prog, _, _ := loadTree(t)
	for _, path := range []string{
		"repro",
		"repro/internal/store",
		"repro/internal/maintenance",
		"repro/internal/wal",
		"repro/internal/reasoner",
		"repro/internal/obs",
	} {
		if prog.Package(path) == nil {
			t.Errorf("package %s not loaded", path)
		}
	}
}
