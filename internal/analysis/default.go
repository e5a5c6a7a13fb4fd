package analysis

// DefaultCheckers returns the six checkers configured for this
// repository's documented invariants (see INVARIANTS.md). modPath is
// the module path ("repro").
func DefaultCheckers(modPath string) []Checker {
	store := modPath + "/internal/store"
	wal := modPath + "/internal/wal"
	maint := modPath + "/internal/maintenance"
	reasoner := modPath + "/internal/reasoner"
	rdf := modPath + "/internal/rdf"
	obs := modPath + "/internal/obs"
	trace := modPath + "/internal/trace"

	lockorder := &LockOrder{Classes: []LockClass{
		// Facade order (slider.go): retractMu is taken before every
		// other lock a retraction uses, then the one writer lock.
		{Name: "retractMu", PkgPath: modPath, Type: "Reasoner", Field: "retractMu", Rank: 10},
		{Name: "writeMu", PkgPath: modPath, Type: "Reasoner", Field: "writeMu", Rank: 20},
		// The WAL's log mutex nests under the writer lock (Append is
		// called with writeMu held).
		{Name: "wal.Log.mu", PkgPath: wal, Type: "Log", Field: "mu", Rank: 50},
		// Store order: workMu serializes run merges and is taken before
		// Store.mu, which serializes root publication and merge swaps;
		// the compaction queue mutex is a leaf.
		{Name: "workMu", PkgPath: store, Type: "Store", Field: "workMu", Rank: 60},
		{Name: "Store.mu", PkgPath: store, Type: "Store", Field: "mu", Rank: 70},
		{Name: "comp.mu", PkgPath: store, Type: "Store", Field: "comp.mu", Rank: 80},
		// Dictionary order: Encode takes a term's stripe lock, then seqMu
		// to hand out the sequence number; nothing under seqMu takes a
		// stripe lock.
		{Name: "dictStripe.mu", PkgPath: rdf, Type: "dictStripe", Field: "mu", Rank: 120},
		{Name: "seqMu", PkgPath: rdf, Type: "Dictionary", Field: "seqMu", Rank: 130},
	}}

	exclusive := &ExclusiveWindow{
		RootPkg:  maint,
		RootType: "Pass",
		RootFunc: "Apply",
	}

	runimmutable := &RunImmutable{
		PkgPath:   store,
		RunType:   "run",
		PartTypes: []string{"direction"},
		Fields: map[string]bool{
			"pairs": true, "del": true, "bySub": true, "byObj": true,
			"keys": true, "off": true, "vals": true, "nkeys": true,
		},
		Blessed: map[string]bool{
			"buildRun": true, "mergeRuns": true, "mergeDirection": true,
			"directionOf": true, "newDirection": true, "endSpan": true,
			"checkRun": true,
		},
	}

	hotpath := &HotPath{
		StringerKey: rdf + ".Term",
		Hot: []HotFunc{
			// Facade ingest.
			{Pkg: modPath, Recv: "Reasoner", Name: "AddTriples"},
			{Pkg: modPath, Recv: "Reasoner", Name: "addTriples"},
			{Pkg: modPath, Recv: "Reasoner", Name: "drainLocked"},
			{Pkg: modPath, Recv: "Reasoner", Name: "logAssertLocked"},
			{Pkg: modPath, Recv: "Reasoner", Name: "applyAssert"},
			// Engine routing, buffering and join execution.
			{Pkg: reasoner, Recv: "Engine", Name: "Add"},
			{Pkg: reasoner, Recv: "Engine", Name: "AddBatch"},
			{Pkg: reasoner, Recv: "Engine", Name: "route"},
			{Pkg: reasoner, Recv: "Engine", Name: "routeBatch"},
			{Pkg: reasoner, Recv: "Engine", Name: "deliver"},
			{Pkg: reasoner, Recv: "Engine", Name: "deliverBatch"},
			{Pkg: reasoner, Recv: "Engine", Name: "submit"},
			{Pkg: reasoner, Recv: "Engine", Name: "runInstance"},
			// The quiescence wake-up's raising side rides every routing
			// pass and every instance: no clock read, whoever is parked.
			{Pkg: reasoner, Recv: "Engine", Name: "enter"},
			{Pkg: reasoner, Recv: "Engine", Name: "routed"},
			{Pkg: reasoner, Recv: "Engine", Name: "finish"},
			{Pkg: reasoner, Recv: "wake", Name: "raise"},
			{Pkg: reasoner, Recv: "buffer", Name: "add"},
			{Pkg: reasoner, Recv: "buffer", Name: "addBatch"},
			// Store probe and insert paths the joins hammer.
			{Pkg: store, Recv: "Store", Name: "Add"},
			{Pkg: store, Recv: "Store", Name: "AddBatch"},
			{Pkg: store, Recv: "Store", Name: "apply"},
			{Pkg: store, Recv: "Store", Name: "Contains"},
			{Pkg: store, Recv: "Store", Name: "ContainsBatch"},
			{Pkg: store, Recv: "Store", Name: "ObjectsAppend"},
			{Pkg: store, Recv: "Store", Name: "SubjectsAppend"},
			{Pkg: store, Recv: "View", Name: "next"},
			{Pkg: store, Name: "stageChange"},
			{Pkg: store, Recv: "View", Name: "list"},
			{Pkg: store, Recv: "View", Name: "Contains"},
			{Pkg: store, Recv: "View", Name: "ObjectsAppend"},
			{Pkg: store, Recv: "View", Name: "SubjectsAppend"},
			{Pkg: store, Name: "groupByPredicate"},
			{Pkg: store, Name: "live"},
			// WAL append.
			{Pkg: wal, Recv: "Log", Name: "Append"},
			{Pkg: wal, Recv: "Log", Name: "AppendCtx"},
			{Pkg: wal, Recv: "Log", Name: "append"},
			// Traced ingest wrappers ride the same path as their plain
			// counterparts.
			{Pkg: modPath, Recv: "Reasoner", Name: "AddBatchCtx"},
			{Pkg: reasoner, Recv: "Engine", Name: "AddBatchCtx"},
			// Span creation itself: a disabled tracer must never touch
			// the clock, so these route through the package's gated now().
			{Pkg: trace, Name: "Start"},
			{Pkg: trace, Name: "StartRoot"},
			{Pkg: trace, Recv: "Span", Name: "Child"},
			{Pkg: trace, Recv: "Span", Name: "End"},
			{Pkg: trace, Recv: "Tracer", Name: "newSpan"},
			{Pkg: trace, Recv: "Tracer", Name: "record"},
		},
	}

	metricnames := &MetricNames{
		RegistryKey: obs + ".Registry",
		Methods: map[string]string{
			"Counter":     "counter",
			"CounterFunc": "counter",
			"Gauge":       "gauge",
			"GaugeFunc":   "gauge",
			"Histogram":   "histogram",
		},
		Prefix:            "slider_",
		HistogramSuffixes: HistogramUnitSuffixes,
	}

	spannames := &SpanNames{
		Funcs: []SpanFunc{
			// StartRequest is deliberately absent: the serving layer's
			// request names derive from its route table ("http."+route).
			{Pkg: trace, Name: "Start", Arg: 1},
			{Pkg: trace, Name: "StartRoot", Arg: 0},
		},
		Methods: []SpanMethod{
			{RecvKey: trace + ".Span", Name: "Child", Arg: 0},
		},
	}

	return []Checker{lockorder, exclusive, runimmutable, hotpath, metricnames, spannames}
}
