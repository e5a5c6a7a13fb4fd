package analysis

import (
	"flag"
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

// TestTreeIsClean is the meta-test: the real module must produce zero
// diagnostics under the default configuration — the same invocation CI
// runs via cmd/slidervet.
func TestTreeIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	modPath := prog.Pkgs[0].Path
	for _, p := range prog.Pkgs {
		if len(p.Path) < len(modPath) {
			modPath = p.Path
		}
	}
	for _, d := range Run(prog, DefaultCheckers(modPath)) {
		t.Errorf("unexpected diagnostic: %s", d.Rel(root))
	}
}

// TestLoadModuleShape sanity-checks the loader: the module root and the
// packages the checkers key on must all be present.
func TestLoadModuleShape(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
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
