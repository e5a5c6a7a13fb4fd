package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	slider "repro"
	"repro/internal/ntriples"
	"repro/internal/ontogen"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Sample counts of the traced run's cells at -seconds = runSeconds. They
// are smaller than the untraced phases': per-layer numbers are
// informational, and the traced run has twice as many things to do.
const (
	cellQueries   = 1_000
	cellWaitIdle  = 100
	cellFreezes   = 200
	cellHTTP      = 150
	cellWALAppend = 500
	cellWALFsync  = 100
	parseBodies   = 64 // load bodies the parser cell reads
	walRecords    = 64 // 4096-triple records behind wal.bytes_per_triple and wal.replay_s
	chainLength   = 400
	// serverCellRate is the open-loop rate, in batches per second, of the
	// server cell's HTTP inserts: well below what any workload saturates at.
	serverCellRate = 75
)

// tracedRun is the -trace 1 run: the untraced run's own phases, once each,
// with a recorder taking a span around every call into the system, and
// between them cells that push the workload's inputs through one layer's
// public calls at a time. The per-layer metrics of the shared phases are
// read back from the spans the phases left (derive).
type tracedRun struct {
	*run
	ts      []rdf.Triple  // the input, encoded by the scratch reasoner's dictionary
	closure time.Duration // the scratch reasoner's AddTriples + Wait span
}

func runTraced(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	r, err := newRun(w, cfg, newRecorder())
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	t := &tracedRun{run: r}
	err = r.steps(ctx, []step{
		{"setup", t.setupOnce}, {"load", t.loadOnce},
		// These need the inputs the load's checks drop. They come after the
		// load so that, like two of the untraced run's three loads, the
		// scratch closure runs in a process whose heap has already grown.
		{"ntriples", t.parseCell}, {"load-layers", t.loadLayerCells}, {"wal", t.walCells},
		{"load-checks", t.loadChecks},
		{"wait-idle", t.waitIdleCell}, {"query-layers", t.queryCells},
		{"serve", r.serve}, {"churn", r.churn}, {"derive", t.derive},
		{"server", t.serverCells}, {"snapshot", t.snapshotCells}, {"recover", r.recover},
		{"trace-overhead", t.overheadCell}, {"chain", t.chainCell},
	})
	if err != nil {
		return nil, err
	}
	r.rec.end(r.root)
	if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), r.rec.spans); err != nil {
		return nil, err
	}
	return r.res, nil
}

func (t *tracedRun) setupOnce(ctx context.Context) error {
	d, err := t.setup(ctx)
	t.res.add("setup_s", "s", d.Seconds(), 1)
	return err
}

// loadOnce is the shared load phase with the runtime's allocation and
// collector counters read on either side of it.
func (t *tracedRun) loadOnce(ctx context.Context) error {
	var before, after runtime.MemStats
	cpu := readGCCPU()
	runtime.ReadMemStats(&before)
	d, err := t.load(ctx)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	gc, all := readGCCPU().minus(cpu)
	n := len(t.data.stmts)
	t.res.add("closure_s", "s", d.Seconds(), 1)
	t.res.add("go.allocs_per_triple", "count", float64(after.Mallocs-before.Mallocs)/float64(n), 1)
	t.res.add("go.alloc_bytes_per_triple", "B", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), 1)
	t.res.add("go.gc_cpu_share", "ratio", gc/all, 1)
	return nil
}

// derive reads the per-layer metrics of the trickle and churn phases back
// from their spans and from what each retraction reported of itself.
func (t *tracedRun) derive(context.Context) error {
	batches, refresh := t.rec.durations("trickle.batch"), t.rec.durations("view.refresh")
	t.res.add("view.refresh_ms_p50", "ms", refresh.p50(time.Millisecond), len(refresh))
	t.res.add("view.refresh_share_of_visible", "ratio", refresh.p50(time.Millisecond)/batches.p50(time.Millisecond), len(refresh))
	t.res.add("view.visible_ms_p95", "ms", batches.p95(time.Millisecond), len(batches))

	passes := t.rec.durations(t.sys.span("maintenance.retract"))
	var prepare, exclusive timed
	var suspects, rederived samples
	twoPhase := 0
	for _, st := range t.retracts {
		prepare = append(prepare, time.Duration(st.PrepareMicros)*time.Microsecond)
		exclusive = append(exclusive, time.Duration(st.ExclusiveMicros)*time.Microsecond)
		suspects = append(suspects, float64(st.Suspects))
		rederived = append(rederived, float64(st.Rederived))
		if st.TwoPhase {
			twoPhase++
		}
	}
	n := len(t.retracts)
	t.res.add("maintenance.prepare_us_p50", "us", prepare.p50(time.Microsecond), n)
	t.res.add("maintenance.exclusive_us_p50", "us", exclusive.p50(time.Microsecond), n)
	t.res.add("maintenance.suspects_mean", "count", suspects.mean(), n)
	t.res.add("maintenance.rederived_mean", "count", rederived.mean(), n)
	t.res.add("maintenance.two_phase_share", "ratio", float64(twoPhase)/float64(max(n, 1)), n)
	t.res.add("maintenance.retract_ms_p95", "ms", passes.p95(time.Millisecond), len(passes))
	return nil
}

// timed collects the durations of repeated calls of one kind.
type timed []time.Duration

func (d timed) percentile(p float64, unit time.Duration) float64 {
	var s samples
	for _, v := range d {
		s.add(v, unit)
	}
	return s.percentile(p)
}

func (d timed) p50(unit time.Duration) float64 { return d.percentile(50, unit) }
func (d timed) p95(unit time.Duration) float64 { return d.percentile(95, unit) }

func (d timed) total() time.Duration {
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum
}

func perTriple(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

// parseCell times ntriples.Reader.ReadAll over the first load bodies.
func (t *tracedRun) parseCell(context.Context) error {
	var spent timed
	size := 0
	for i, body := range t.data.bodies[:min(parseBodies, len(t.data.bodies))] {
		var sts []rdf.Statement
		var err error
		spent = append(spent, t.rec.time(t.phase, "ntriples.parse", func() {
			sts, err = ntriples.NewReader(bytes.NewReader(body)).ReadAll()
		}))
		if err != nil {
			return err
		}
		t.res.attempt(1)
		t.res.check(len(sts) == min(loadBatch, len(t.data.stmts)-i*loadBatch), "body %d parsed to %d statements", i, len(sts))
		size += len(body)
	}
	t.res.add("ntriples.parse_s", "s", spent.total().Seconds(), len(spent))
	t.res.add("ntriples.parse_mb_per_s", "MB/s", float64(size)/1e6/spent.total().Seconds(), len(spent))
	return nil
}

// loadLayerCells is the load taken apart at the layer boundaries, on a
// scratch in-memory reasoner: encode every statement (the first pass misses
// the dictionary, the second hits it), hand the encoded triples over in
// load-sized batches and wait, then (storeCells) put the same triples into
// a bare store.
func (t *tracedRun) loadLayerCells(ctx context.Context) error {
	r := slider.New(t.w.frag, slider.WithRetraction(), slider.WithViewMaxAge(-1))
	defer r.Close(ctx)
	dict := r.Dictionary()
	sts := t.data.stmts
	t.ts = make([]rdf.Triple, len(sts))
	runtime.GC() // as the load phase does before it starts

	miss := t.rec.time(t.phase, "rdf.encode", func() {
		for i, st := range sts {
			t.ts[i] = dict.EncodeStatement(st)
		}
	})
	hit := t.rec.time(t.phase, "rdf.encode.hit", func() {
		for i, st := range sts {
			t.ts[i] = dict.EncodeStatement(st)
		}
	})
	var werr error
	t.closure = t.rec.time(t.phase, "reasoner.closure", func() {
		for i := 0; i < len(t.ts); i += loadBatch {
			r.AddTriples(t.ts[i:min(i+loadBatch, len(t.ts))])
		}
		werr = r.Wait(ctx)
	})
	if werr != nil {
		return werr
	}
	t.res.attempt(1)
	t.res.check(r.Len() == t.expected, "scratch closure has %d triples, counting model predicts %d", r.Len(), t.expected)

	n := len(sts)
	t.res.add("rdf.encode_miss_ns_per_triple", "ns", perTriple(miss, n), n)
	t.res.add("rdf.encode_hit_ns_per_triple", "ns", perTriple(hit, n), n)
	t.res.add("rdf.terms", "count", float64(dict.Len()), 1)
	t.res.add("reasoner.closure_s", "s", t.closure.Seconds(), 1)

	st := r.Stats()
	timeouts := int64(0)
	for _, m := range st.Modules {
		timeouts += m.TimeoutFlushes
	}
	t.res.add("reasoner.executions", "count", float64(st.Executions), 1)
	t.res.add("reasoner.timeout_flushes", "count", float64(timeouts), 1)
	t.res.add("reasoner.dup_ratio", "ratio", float64(st.Duplicates)/float64(max(st.Duplicates+st.Inferred, 1)), 1)
	for _, rule := range ruleNames {
		m := st.ModuleByName(rule) // the zero value when the fragment lacks the rule
		t.res.add("rules."+rule+".fresh", "count", float64(m.Fresh), 1)
		t.res.add("rules."+rule+".duplicates", "count", float64(m.Derived-m.Fresh), 1)
		t.res.add("rules."+rule+".executions", "count", float64(m.Executions), 1)
	}
	return t.storeCells()
}

// gcCPU is the runtime's cumulative CPU split.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcCPU{s[0].Value.Float64(), s[1].Value.Float64()}
}

func (c gcCPU) minus(earlier gcCPU) (gc, total float64) {
	return c.gc - earlier.gc, max(c.total-earlier.total, 1e-9)
}

// storeCells drives a bare store with the same encoded triples:
// fresh insert of all of them, then, over the first quarter, the same
// batches again (all duplicates), membership and removal; freeze and
// compaction. reasoner.infer_self_s is the closure span
// minus the fresh insert measured here.
func (t *tracedRun) storeCells() error {
	st := store.New()
	chunks := func(name string, upto int, f func([]rdf.Triple)) time.Duration {
		return t.rec.time(t.phase, name, func() {
			for i := 0; i < upto; i += loadBatch {
				f(t.ts[i:min(i+loadBatch, upto)])
			}
		})
	}
	n := len(t.ts)
	add := chunks("store.add", n, func(b []rdf.Triple) { st.AddBatch(b) })
	distinct := st.Len()
	quarter := n / 4
	dup := chunks("store.dup_add", quarter, func(b []rdf.Triple) { st.AddBatch(b) })
	present := 0
	contains := chunks("store.contains", quarter, func(b []rdf.Triple) {
		for _, ok := range st.ContainsBatch(b) {
			if ok {
				present++
			}
		}
	})
	t.res.attempt(2)
	t.res.check(st.Len() == distinct, "re-adding the input grew the store from %d to %d", distinct, st.Len())
	t.res.check(present == quarter, "ContainsBatch found %d of %d stored triples", present, quarter)

	var freezes timed
	for i := 0; i < t.cfg.count(cellFreezes); i++ {
		freezes = append(freezes, t.rec.time(t.phase, "store.freeze", func() { st.Freeze().Release() }))
	}
	removed := 0
	remove := chunks("store.remove", quarter, func(b []rdf.Triple) { removed += st.RemoveAll(b) })
	shape := st.Stats()
	compact := t.rec.time(t.phase, "store.compact", st.Compact)

	t.res.add("store.add_ns_per_triple", "ns", perTriple(add, n), n)
	t.res.add("store.dup_add_ns_per_triple", "ns", perTriple(dup, quarter), quarter)
	t.res.add("store.contains_ns", "ns", perTriple(contains, quarter), quarter)
	t.res.add("store.remove_ns_per_triple", "ns", perTriple(remove, removed), removed)
	t.res.add("store.freeze_us_p50", "us", freezes.p50(time.Microsecond), len(freezes))
	t.res.add("store.compact_s", "s", compact.Seconds(), 1)
	t.res.add("store.runs", "count", float64(shape.Runs), 1)
	t.res.add("store.overlay_pairs", "count", float64(shape.OverlayPairs), 1)
	t.res.add("store.tombstones", "count", float64(shape.Tombstones), 1)

	t.res.add("reasoner.infer_self_s", "s", (t.closure - add).Seconds(), 1)
	return nil
}

// walCells appends the encoded input to scratch logs: load-sized records
// for the bytes-per-triple and replay figures, trickle-sized ones for the
// append latency with and without fsync.
func (t *tracedRun) walCells(context.Context) error {
	defer func() { t.ts = nil }()
	record := func(i, size int) wal.Record {
		lo := (i * size) % max(len(t.ts)-size, 1)
		return wal.Record{Op: wal.OpAssert, Triples: t.ts[lo:min(lo+size, len(t.ts))]}
	}
	dir := filepath.Join(t.dir, "wal")
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	triples := 0
	for i := 0; i < min(walRecords, len(t.data.bodies)); i++ {
		rec := record(i, loadBatch)
		if err := log.Append(rec); err != nil {
			return err
		}
		triples += len(rec.Triples)
	}
	size := log.LiveBytes()
	// trickleAppends times n trickle-sized appends to l.
	trickleAppends := func(l *wal.Log, span string, n int) (timed, error) {
		var spent timed
		for i := 0; i < n; i++ {
			rec := record(i, trickleBatch)
			var err error
			spent = append(spent, t.rec.time(t.phase, span, func() { err = l.Append(rec) }))
			if err != nil {
				return nil, err
			}
		}
		return spent, nil
	}
	appends, err := trickleAppends(log, "wal.append", t.cfg.count(cellWALAppend))
	if err != nil {
		return err
	}
	records := min(walRecords, len(t.data.bodies)) + len(appends)
	if err := log.Close(); err != nil {
		return err
	}
	replayed := 0
	id := t.rec.start(t.phase, "wal.replay")
	log, err = wal.Open(dir, wal.Options{})
	if err == nil {
		_, err = log.Replay(func(wal.Record) error { replayed++; return nil })
	}
	replay := t.rec.end(id)
	if err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	t.res.attempt(1)
	t.res.check(replayed == records, "replay returned %d of %d appended records", replayed, records)

	synced, err := wal.Open(filepath.Join(t.dir, "wal-fsync"), wal.Options{Fsync: true})
	if err != nil {
		return err
	}
	fsyncs, err := trickleAppends(synced, "wal.append.fsync", t.cfg.count(cellWALFsync))
	if err != nil {
		return err
	}
	if err := synced.Close(); err != nil {
		return err
	}
	t.res.add("wal.append_us_p50", "us", appends.p50(time.Microsecond), len(appends))
	t.res.add("wal.append_fsync_us_p50", "us", fsyncs.p50(time.Microsecond), len(fsyncs))
	t.res.add("wal.bytes_per_triple", "B", float64(size)/float64(triples), triples)
	t.res.add("wal.replay_s", "s", replay.Seconds(), records)
	return nil
}

// waitIdleCell times Wait after a one-triple batch: the floor under every
// visibility latency.
func (t *tracedRun) waitIdleCell(ctx context.Context) error {
	r := t.sys.r
	var waits timed
	var added []rdf.Statement
	for i := 0; i < t.cfg.count(cellWaitIdle); i++ {
		st := rdf.NewStatement(rdf.NewIRI(fmt.Sprintf("http://example.org/bench/idle/%d", i)), labelIRI, rdf.NewLiteral("idle"))
		if _, err := r.AddBatch([]rdf.Statement{st}); err != nil {
			return err
		}
		added = append(added, st)
		var err error
		waits = append(waits, t.rec.time(t.phase, "reasoner.wait", func() { err = r.Wait(ctx) }))
		if err != nil {
			return err
		}
	}
	if _, err := r.Retract(ctx, added...); err != nil {
		return err
	}
	t.res.attempt(1)
	t.res.check(r.Len() == t.loaded, "after the wait-idle cell Len() = %d, post-load was %d", r.Len(), t.loaded)
	t.res.add("reasoner.wait_idle_us_p50", "us", waits.p50(time.Microsecond), len(waits))
	return nil
}

// queryCells times the parser alone, then runs the mix through the explain
// face, which reports planning and execution apart.
func (t *tracedRun) queryCells(ctx context.Context) error {
	n := t.cfg.count(cellQueries)
	mix := t.data.mix(t.cfg.seed, n/2, n/2)
	v, err := t.sys.r.View(ctx)
	if err != nil {
		return err
	}
	defer v.Close()
	var parse, joins timed
	var plan, exec [2]samples
	var probes, rows int64
	for _, e := range mix {
		var q query.Query
		var err error
		parse = append(parse, t.rec.time(t.phase, "query.parse", func() { q, err = query.ParseSelect(e.text) }))
		if err != nil {
			return err
		}
		var ex query.Explain
		id := t.rec.start(t.phase, "query.exec")
		err = v.SelectQueryFuncExplain(ctx, q, &ex, func(slider.Binding) bool { return true })
		whole := parse[len(parse)-1] + t.rec.end(id)
		if err != nil {
			return err
		}
		if e.class == joinQuery {
			joins = append(joins, whole)
		}
		t.rec.attr(id, "plan_us", ex.PlanMicros)
		t.rec.attr(id, "exec_us", ex.ExecMicros)
		plan[e.class] = append(plan[e.class], float64(ex.PlanMicros))
		exec[e.class] = append(exec[e.class], float64(ex.ExecMicros))
		rows += ex.Rows
		for _, p := range ex.Patterns {
			probes += p.Probes
		}
	}
	t.res.attempt(len(mix))
	t.res.add("query.parse_us_p50", "us", parse.p50(time.Microsecond), len(parse))
	t.res.add("query.plan_us_p50", "us", append(plan[pointQuery], plan[joinQuery]...).percentile(50), len(mix))
	t.res.add("query.exec_point_us_p50", "us", exec[pointQuery].percentile(50), len(exec[pointQuery]))
	t.res.add("query.exec_join_us_p50", "us", exec[joinQuery].percentile(50), len(exec[joinQuery]))
	t.res.add("query.probes_per_row", "ratio", float64(probes)/float64(max(rows, 1)), len(mix))
	t.res.add("query.join_ms_p95", "ms", joins.p95(time.Millisecond), len(joins))
	return nil
}

// serverCells sends the same inserts and queries through the HTTP front
// and through the library; the difference of the medians is the front's
// overhead. The HTTP inserts go out open-loop at the trickle rate, which
// also measures how late the load generator itself runs.
func (t *tracedRun) serverCells(ctx context.Context) error {
	n := t.cfg.count(cellHTTP)
	var viaHTTP, viaLibrary, fromDue, late timed
	period := time.Second / serverCellRate
	start := time.Now()
	for i := 0; i < 2*n; i++ {
		overHTTP := i < n
		b, err := t.data.fresh(t.next, overHTTP)
		if err != nil {
			return err
		}
		t.next++
		if !overHTTP {
			viaLibrary = append(viaLibrary, t.rec.time(t.phase, "reasoner.addbatch", func() { _, err = t.sys.r.AddBatch(b.sts) }))
		} else {
			due := start.Add(time.Duration(i) * period)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late = append(late, max(time.Since(due), 0))
			viaHTTP = append(viaHTTP, t.rec.time(t.phase, "server.insert", func() {
				_, err = t.sys.post(t.sys.writer, "/v1/insert", b.body)
			}))
			fromDue = append(fromDue, time.Since(due))
		}
		if err != nil {
			return err
		}
		if err := t.sys.r.Wait(ctx); err != nil {
			return err
		}
		// These batches stay, so the recovery must restore them too.
		t.live = append(t.live, b)
		t.final += t.growth(b)
	}
	t.res.attempt(2 * n)

	mix := t.data.mix(t.cfg.seed+1, n/2, n/2)
	var qHTTP, qLibrary timed
	for _, e := range mix {
		var err error
		var viaFront, direct int
		qHTTP = append(qHTTP, t.rec.time(t.phase, "server.query", func() { viaFront, err = t.sys.httpQuery(e.text) }))
		if err != nil {
			return err
		}
		qLibrary = append(qLibrary, t.rec.time(t.phase, "view.query", func() { direct, err = t.sys.libraryQuery(ctx, e.text) }))
		if err != nil {
			return err
		}
		t.res.attempt(1)
		t.res.check(viaFront == direct, "query %q: %d rows over HTTP, %d through the library", e.text, viaFront, direct)
	}
	t.res.add("reasoner.addbatch_us_p50", "us", viaLibrary.p50(time.Microsecond), n)
	t.res.add("server.insert_overhead_ms_p50", "ms", viaHTTP.p50(time.Millisecond)-viaLibrary.p50(time.Millisecond), n)
	t.res.add("server.query_overhead_ms_p50", "ms", qHTTP.p50(time.Millisecond)-qLibrary.p50(time.Millisecond), len(mix))
	t.res.add("server.insert_ack_ms_p95", "ms", fromDue.p95(time.Millisecond), n)
	t.res.add("loadgen.late_ms_p95", "ms", late.p95(time.Millisecond), n)
	return nil
}

// snapshotCells saves the closure with snapshot.Save and loads it back.
func (t *tracedRun) snapshotCells(ctx context.Context) error {
	r := t.sys.r
	if err := r.Wait(ctx); err != nil {
		return err
	}
	path := filepath.Join(t.dir, "kb.snap")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	save := t.rec.time(t.phase, "snapshot.save", func() {
		if err = snapshot.Save(f, r.Dictionary(), r.Store()); err == nil {
			err = f.Sync()
		}
	})
	if err != nil {
		return err
	}
	size, err := f.Seek(0, 1)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	var back *store.Store
	load := t.rec.time(t.phase, "snapshot.load", func() { _, back, err = snapshot.Load(f) })
	if err != nil {
		return err
	}
	t.res.attempt(1)
	t.res.check(back.Len() == r.Len(), "snapshot round trip: %d triples saved, %d loaded", r.Len(), back.Len())
	t.res.add("snapshot.save_s", "s", save.Seconds(), 1)
	t.res.add("snapshot.load_s", "s", load.Seconds(), 1)
	t.res.add("snapshot.bytes_per_triple", "B", float64(size)/float64(r.Len()), r.Len())
	return nil
}

// overheadCell closes the tenth-scale dataset ten times, with the
// repository's tracer off, on, on, off and so on, and reports by how much
// the median traced closure exceeds the median untraced one. A single pair
// is useless here: at this size one closure swings by a third with the
// collector's phase.
func (t *tracedRun) overheadCell(ctx context.Context) error {
	sts := generate(t.w.family, t.w.triples/t.cfg.divisor/10, t.cfg.seed)
	closure := func(name string, on bool) (time.Duration, error) {
		trace.SetEnabled(on)
		defer trace.SetEnabled(false)
		r := slider.New(t.w.frag, t.w.options()...)
		defer r.Close(ctx)
		var err error
		d := t.rec.time(t.phase, name, func() {
			for i := 0; i < len(sts) && err == nil; i += loadBatch {
				_, err = r.AddBatch(sts[i:min(i+loadBatch, len(sts))])
			}
			if err == nil {
				err = r.Wait(ctx)
			}
		})
		return d, err
	}
	var off, on timed
	for _, traced := range []bool{false, true, true, false, false, true, true, false, false, true} {
		name := "closure.untraced"
		if traced {
			name = "closure.traced"
		}
		d, err := closure(name, traced)
		if err != nil {
			return err
		}
		if traced {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	t.res.add("trace.overhead_share", "ratio", on.p50(time.Millisecond)/off.p50(time.Millisecond)-1, len(on)+len(off))
	return nil
}

// chainCell closes the paper's subClassOf-400 chain on one worker: the
// duplicate-torture case, too unsteady on this machine to gate anything.
func (t *tracedRun) chainCell(ctx context.Context) error {
	n := max(chainLength/t.cfg.divisor, 20)
	sts := ontogen.SubClassChain(n)
	r := slider.New(slider.RhoDF, slider.WithWorkers(1))
	defer r.Close(ctx)
	var err error
	d := t.rec.time(t.phase, "rules.chain", func() {
		if _, err = r.AddBatch(sts); err == nil {
			err = r.Wait(ctx)
		}
	})
	if err != nil {
		return err
	}
	t.res.attempt(1)
	want := len(sts) + ontogen.ChainClosureSize(n)
	t.res.check(r.Len() == want, "subClassOf-%d closure has %d triples, want %d", n, r.Len(), want)
	t.res.add("rules.chain400_s", "s", d.Seconds(), 1)
	return nil
}
