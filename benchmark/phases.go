package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	slider "repro"
	"repro/internal/query"
	"repro/internal/rdf"
)

// Sample counts of the query phase at -seconds = runSeconds and -scale
// full; -seconds scales them, and the trickle and churn counts in the
// workload table, linearly. The dataset, and with it the setup, load and
// recover phases, is fixed per workload.
const (
	runSeconds    = 20
	pointQueries  = 10_000
	joinQueries   = 4_000
	minSampleSize = 20
	// repeats is how often the untraced run repeats each phase that yields
	// one number (setup, load, recover), every time from scratch; the
	// metric is the median of the three. Between processes on this machine
	// one load differs by twice as much as between repeats inside one.
	repeats = 3
)

// runConfig is what the command line decides about one run.
type runConfig struct {
	seed    int64
	seconds int
	divisor int    // 1 full, 100 tiny
	outDir  string // result records, traces and scratch directories
}

// count scales a sampled phase's catalogue count to this run, keeping at
// least minSampleSize samples (or the catalogue count, if that is smaller).
func (c runConfig) count(base int) int {
	return max(base*c.seconds/runSeconds/c.divisor, min(base, minSampleSize))
}

// run is one run of a workload: the six phases, every end-to-end metric,
// every correctness check. The traced run is the same phases with a
// recorder, once each, and the layer cells of layers.go between them.
type run struct {
	w    workload
	cfg  runConfig
	res  *result
	data *dataset
	sys  *system
	dir  string // scratch directory, removed when the run ends

	rec   *recorder // nil untraced: its methods then do nothing
	root  int       // the run's span
	phase int       // the current phase's span, under which its calls hang
	reps  int       // repeats, or 1 traced
	front bool      // open the HTTP front: the workload's face, or always when traced

	opened   int // systems opened so far: each gets a directory of its own
	expected int // closure size the counting model predicts
	loaded   int // Len() after the load phase
	final    int // Len() the churn phase must end on, and recovery restore
	live     []batch
	next     int // next unused fresh-batch number
	// batchGrowth is the part of a fresh batch's closure every batch
	// shares (see batch.inherited), measured on the first one.
	batchGrowth int
	retracts    []slider.RetractStats // what each churn retraction said of itself
}

type step struct {
	name string
	run  func(context.Context) error
}

// newRun makes the scratch directory; the caller removes it.
func newRun(w workload, cfg runConfig, rec *recorder) (*run, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	r := &run{w: w, cfg: cfg, dir: dir, rec: rec, reps: repeats, front: w.http, res: newResult(w, cfg, rec != nil)}
	if rec != nil {
		r.reps, r.front = 1, true
		r.root = rec.start(0, "run")
	}
	return r, nil
}

// steps runs the phases in order, each under a span and with its
// wall-clock recorded, then closes the system.
func (r *run) steps(ctx context.Context, steps []step) error {
	defer func() {
		if r.sys != nil {
			r.sys.close(ctx)
		}
	}()
	for _, s := range steps {
		t0 := time.Now()
		r.phase = r.rec.start(r.root, "phase."+s.name)
		if err := s.run(ctx); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r.rec.end(r.phase)
		r.res.phase(s.name, time.Since(t0))
		progress("%s %s: %.2fs", r.w.name, s.name, time.Since(t0).Seconds())
	}
	err := r.sys.close(ctx)
	r.sys = nil
	r.res.check(err == nil, "close: %v", err)
	return nil
}

func runWorkload(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	r, err := newRun(w, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	err = r.steps(ctx, []step{
		{"setup+load", r.cycles}, {"serve", r.serve}, {"churn", r.churn}, {"recover", r.recover},
	})
	return r.res, err
}

// cycles is phases 1 and 2, repeated: set up from nothing, load, and —
// except the last time — tear down again. setup_s and closure_s are the
// medians.
func (r *run) cycles(ctx context.Context) error {
	var setups, loads []float64
	for rep := 0; rep < r.reps; rep++ {
		if rep > 0 {
			err := r.sys.close(ctx)
			r.sys, r.data = nil, nil
			if err != nil {
				return fmt.Errorf("close after load %d: %w", rep, err)
			}
		}
		d, err := r.setup(ctx)
		if err != nil {
			return fmt.Errorf("setup %d: %w", rep+1, err)
		}
		setups = append(setups, d.Seconds())
		if d, err = r.load(ctx); err != nil {
			return fmt.Errorf("load %d: %w", rep+1, err)
		}
		loads = append(loads, d.Seconds())
		progress("%s cycle %d: setup %.2fs load %.2fs", r.w.name, rep+1, setups[rep], loads[rep])
	}
	r.res.add("setup_s", "s", median(setups), len(setups))
	r.res.add("closure_s", "s", median(loads), len(loads))
	return r.loadChecks(ctx)
}

// setup is phase 1: the inputs generated from the seed, serialised and
// hashed; the oracle at a tenth of the size, which is also the warm-up; the
// counting model's prediction for the full closure; and the system opened
// in a fresh directory.
func (r *run) setup(ctx context.Context) (time.Duration, error) {
	runtime.GC() // the previous cycle's reasoner is not this one's to collect
	t0 := time.Now()
	n := r.w.triples / r.cfg.divisor
	data, err := newDataset(r.w.family, n, r.cfg.seed)
	if err != nil {
		return 0, err
	}
	err = oracle(ctx, r.w, n/10, r.cfg.seed)
	r.res.attempt(1)
	r.res.check(err == nil, "%v", err)
	expected, err := expectedClosure(data.stmts, r.w.frag.Name() == "rdfs")
	if err != nil {
		return 0, err
	}
	r.opened++
	sys, err := open(ctx, r.w, filepath.Join(r.dir, fmt.Sprintf("kb%d", r.opened)), r.front)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(t0)
	if r.res.InputSHA256 != "" && r.res.InputSHA256 != data.sha {
		sys.close(ctx)
		return 0, fmt.Errorf("seed %d gave input %s, then %s", r.cfg.seed, r.res.InputSHA256, data.sha)
	}
	r.data, r.sys, r.expected = data, sys, expected
	r.res.InputSHA256 = data.sha
	r.res.Sizes["input_triples"] = len(data.stmts)
	r.res.Sizes["oracle_triples"] = n / 10
	return elapsed, nil
}

// load is phase 2: the whole dataset in 4096-triple batches, then Wait.
func (r *run) load(ctx context.Context) (time.Duration, error) {
	runtime.GC() // the generator's garbage is not the load's to collect
	name := r.sys.span("reasoner.addbatch")
	t0 := time.Now()
	for i, body := range r.data.bodies {
		sts := r.data.stmts[i*loadBatch : min((i+1)*loadBatch, len(r.data.stmts))]
		id := r.rec.start(r.phase, name)
		err := r.sys.insert(sts, body)
		r.rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("load batch %d: %w", i, err)
		}
	}
	id := r.rec.start(r.phase, "reasoner.wait")
	err := r.sys.r.Wait(ctx)
	r.rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("load wait: %w", err)
	}
	elapsed := time.Since(t0)
	r.res.attempt(len(r.data.bodies))
	r.loaded = r.sys.r.Len()
	r.res.Sizes["closure_triples"] = r.loaded
	r.res.check(r.loaded == r.expected, "post-load Len() = %d, counting model predicts %d", r.loaded, r.expected)
	return elapsed, nil
}

// loadChecks compares planned and as-written query answers on the loaded
// system and drops the inputs.
func (r *run) loadChecks(ctx context.Context) error {
	if err := r.checkTemplates(ctx); err != nil {
		return err
	}
	r.data.release()
	return nil
}

// checkTemplates runs each distinct query template once with the planner
// and once in the as-written order; the rows must agree.
func (r *run) checkTemplates(ctx context.Context) error {
	v, err := r.sys.r.View(ctx)
	if err != nil {
		return err
	}
	defer v.Close()
	for i, t := range r.data.templates() {
		text := r.data.instantiate(t, (i*37+int(r.cfg.seed))%r.data.entities[t.kind])
		q, err := query.ParseSelect(text)
		if err != nil {
			return fmt.Errorf("template %d: %w", i, err)
		}
		planned, err := v.SelectQuery(q)
		if err != nil {
			return fmt.Errorf("template %d: %w", i, err)
		}
		q.NaiveOrder = true
		naive, err := v.SelectQuery(q)
		if err != nil {
			return fmt.Errorf("template %d naive: %w", i, err)
		}
		r.res.attempt(1)
		r.res.check(sameRows(planned, naive), "template %d: planned order returns %d rows, written order %d, or they differ",
			i, len(planned), len(naive))
	}
	return nil
}

func sameRows(a, b []slider.Binding) bool {
	if len(a) != len(b) {
		return false
	}
	render := func(rows []slider.Binding) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			keys := make([]string, 0, len(row))
			for k := range row {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var buf bytes.Buffer
			for _, k := range keys {
				fmt.Fprintf(&buf, "%s=%s;", k, row[k])
			}
			out[i] = buf.String()
		}
		sort.Strings(out)
		return out
	}
	ra, rb := render(a), render(b)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// pace blocks until the i-th operation of an open loop with that period is
// due and returns its due time. A period of 0 is a closed loop: due now.
// time.Sleep wakes half a millisecond late at the median here, a whole one
// at the 95th percentile, so the last stretch is spent yielding instead.
func pace(start time.Time, i int, period time.Duration) time.Time {
	if period == 0 {
		return time.Now()
	}
	due := start.Add(time.Duration(i) * period)
	time.Sleep(time.Until(due) - 1500*time.Microsecond)
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return due
}

// serve is phases 3 and 4. Without a rate they are closed loops, the query
// mix first and the trickle after it. With one, the trickle writer sends on
// its schedule while, on the second connection, a reader that pauses for
// the workload's think time after every answer works through the query mix
// until the writer is done.
func (r *run) serve(ctx context.Context) error {
	runtime.GC() // start from a settled heap, not in the load's last cycle
	n := r.cfg.count(r.w.trickle)
	if r.w.rate == 0 {
		mix := r.data.mix(r.cfg.seed, r.cfg.count(pointQueries), r.cfg.count(joinQueries))
		if err := r.queries(ctx, mix, 0, nil); err != nil {
			return err
		}
		return r.trickle(ctx, n, 0)
	}
	// More queries than the reader can get through beside the trickle.
	nq := n * int(time.Second/r.w.think) / r.w.rate
	share := nq * joinQueries / (pointQueries + joinQueries)
	mix := r.data.mix(r.cfg.seed, nq-share, share)
	done := make(chan struct{})
	var wg sync.WaitGroup
	var qerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		qerr = r.queries(ctx, mix, r.w.think, done)
	}()
	err := r.trickle(ctx, n, time.Second/time.Duration(r.w.rate))
	close(done)
	wg.Wait()
	return errors.Join(err, qerr)
}

// queries is phase 3: a closed loop over the mix, each query timed from
// when it was sent, with that think time between an answer and the next
// query, until the mix is exhausted or done is closed.
func (r *run) queries(ctx context.Context, mix queryMix, think time.Duration, done <-chan struct{}) error {
	id := r.rec.start(r.root, "phase.query")
	defer r.rec.end(id)
	var lat [2]samples
	rows, sent := 0, 0
	start := time.Now()
loop:
	for _, e := range mix {
		select {
		case <-done:
			break loop
		default:
		}
		t0 := time.Now()
		n, err := r.sys.query(ctx, e.text)
		lat[e.class].add(time.Since(t0), time.Millisecond)
		if err != nil {
			return fmt.Errorf("query %q: %w", e.text, err)
		}
		rows += n
		sent++
		time.Sleep(think)
	}
	r.res.phase("query", time.Since(start))
	r.res.add("query_point_ms_p50", "ms", lat[pointQuery].percentile(50), len(lat[pointQuery]))
	r.res.add("query_join_ms_p50", "ms", lat[joinQuery].percentile(50), len(lat[joinQuery]))
	r.res.add("query_join_ms_p95", "ms", lat[joinQuery].percentile(95), len(lat[joinQuery]))
	r.res.attempt(sent)
	r.res.check(rows > 0, "the query mix returned no row at all")
	return nil
}

// trickle is phase 4: fresh 64-triple batches, each timed from when it was
// due to its ack and to the moment a fresh read session contains its
// sentinel inferred triple.
func (r *run) trickle(ctx context.Context, n int, period time.Duration) error {
	name := r.sys.span("reasoner.addbatch")
	var ack, vis, late samples
	start := time.Now()
	for i := 0; i < n; i++ {
		b, err := r.data.fresh(r.next, r.sys.http)
		if err != nil {
			return err
		}
		r.next++
		before := r.sys.r.Len()
		due := pace(start, i, period)
		late.add(time.Since(due), time.Millisecond)
		id := r.rec.start(r.phase, "trickle.batch")
		ins := r.rec.start(id, name)
		err = r.sys.insert(b.sts, b.body)
		r.rec.end(ins)
		if err != nil {
			return fmt.Errorf("trickle batch %d: %w", i, err)
		}
		ack.add(time.Since(due), time.Millisecond)
		if err := r.sys.visible(ctx, b.sentinel, r.rec, id); err != nil {
			return fmt.Errorf("trickle batch %d: %w", i, err)
		}
		r.rec.end(id)
		vis.add(time.Since(due), time.Millisecond)
		// The view that showed the sentinel was frozen with the engine
		// drained, and this goroutine is the only writer, so Len() is
		// settled. The first batch fixes the constant part of a batch's
		// growth; every later one must grow by that plus its own
		// inherited types.
		grew := r.sys.r.Len() - before
		if i == 0 {
			r.batchGrowth = grew - b.inherited
		}
		r.res.check(grew == r.growth(b), "trickle batch %d grew Len() by %d, want %d", i, grew, r.growth(b))
		r.live = append(r.live, b)
	}
	r.res.phase("trickle", time.Since(start))
	r.res.add("insert_ack_ms_p50", "ms", ack.percentile(50), len(ack))
	r.res.add("visible_ms_p50", "ms", vis.percentile(50), len(vis))
	r.res.add("visible_ms_p95", "ms", vis.percentile(95), len(vis))
	r.res.add("trickle_late_ms_p95", "ms", late.percentile(95), len(late))
	r.res.attempt(n)
	return nil
}

// growth is by how much reasoning over the batch grows Len(), and its
// retraction must shrink it.
func (r *run) growth(b batch) int { return r.batchGrowth + b.inherited }

// churn is phase 5: a sliding window over the trickled batches — assert a
// new one and, as soon as it is acknowledged, retract the oldest. The
// retraction is what is timed, the drain of the engine it starts with
// included. Every cycle must leave Len() grown by the new batch and shrunk
// by the old one, exactly.
func (r *run) churn(ctx context.Context) error {
	n := r.cfg.count(r.w.churn)
	name := r.sys.span("maintenance.retract")
	var lat samples
	for i := 0; i < n; i++ {
		b, err := r.data.fresh(r.next, r.sys.http)
		if err != nil {
			return err
		}
		r.next++
		want := r.sys.r.Len() + r.growth(b)
		if err := r.sys.insert(b.sts, b.body); err != nil {
			return fmt.Errorf("churn insert %d: %w", i, err)
		}
		r.live = append(r.live, b)

		schema := r.w.schemaEvery > 0 && i%r.w.schemaEvery == r.w.schemaEvery-1
		var victim []rdf.Statement
		if schema {
			victim = []rdf.Statement{r.data.schemaEdge(i / r.w.schemaEvery)}
		} else {
			victim, want = r.live[0].sts, want-r.growth(r.live[0])
			r.live = r.live[1:]
		}
		t0 := time.Now()
		id := r.rec.start(r.phase, name)
		st, err := r.sys.retract(ctx, victim)
		r.rec.end(id)
		lat.add(time.Since(t0), time.Millisecond)
		if err != nil {
			return fmt.Errorf("churn retract %d: %w", i, err)
		}
		r.retracts = append(r.retracts, st)
		r.res.check(st.Retracted == len(victim), "churn retract %d removed %d of %d explicit triples", i, st.Retracted, len(victim))
		if schema { // the edge goes straight back, and with it all it implied
			if err := r.sys.insert(victim, nil); err != nil {
				return fmt.Errorf("churn re-assert %d: %w", i, err)
			}
			if err := r.sys.r.Wait(ctx); err != nil {
				return err
			}
		}
		// A retraction returns with the engine drained.
		r.res.check(r.sys.r.Len() == want, "churn cycle %d left Len() = %d, want %d", i, r.sys.r.Len(), want)
	}
	r.res.add("retract_ms_p50", "ms", lat.percentile(50), len(lat))
	r.res.add("retract_ms_p95", "ms", lat.percentile(95), len(lat))
	r.res.attempt(2 * n)

	r.final = r.loaded
	for _, b := range r.live {
		r.final += r.growth(b)
	}
	r.res.attempt(1)
	r.res.check(r.sys.r.Len() == r.final, "post-churn Len() = %d, post-load plus live batches is %d", r.sys.r.Len(), r.final)
	return nil
}

// recover is phase 6, repeated: persist, drop the reasoner, rebuild from
// the bytes, and stop the clock at the first correct query answer.
// recover_s is the median.
func (r *run) recover(ctx context.Context) error {
	probe := r.data.instantiate(r.data.templates()[0], 0)
	var spent []float64
	for rep := 0; rep < r.reps; rep++ {
		if rep > 0 {
			// A durable close with nothing new in the log skips its
			// checkpoint, so every repeat first has one more batch to save.
			b, err := r.data.fresh(r.next, false)
			if err != nil {
				return err
			}
			r.next++
			if err := r.sys.insert(b.sts, nil); err != nil {
				return err
			}
			if err := r.sys.r.Wait(ctx); err != nil {
				return err
			}
			r.final += r.growth(b)
		}
		want, err := r.sys.libraryQuery(ctx, probe)
		if err != nil {
			return err
		}
		d, err := r.rebuild(ctx)
		if err != nil {
			return err
		}
		t0 := time.Now()
		got, err := r.sys.libraryQuery(ctx, probe)
		if err != nil {
			return err
		}
		spent = append(spent, (d + time.Since(t0)).Seconds())
		r.res.attempt(2)
		r.res.check(got == want && want > 0, "post-recover probe returns %d rows, before it returned %d", got, want)
		r.res.check(r.sys.r.Len() == r.final, "post-recover Len() = %d, before it was %d", r.sys.r.Len(), r.final)
	}
	progress("%s recover: %.3g s", r.w.name, spent)
	r.res.add("recover_s", "s", median(spent), len(spent))
	r.res.Sizes["final_triples"] = r.final

	// The heap of the rebuilt reasoner with its store fully compacted: how
	// many pairs background compaction has left in the overlay when the
	// clock stops differs from run to run and moves the figure by 5 %;
	// compacted, it repeats within 0.2 %.
	r.sys.r.Store().Compact()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.add("heap_bytes_per_triple", "B", float64(ms.HeapAlloc)/float64(r.final), 1)
	return nil
}

// rebuild persists the reasoner, drops it and builds a fresh one from the
// persisted bytes: a durable one by Close and Open, an in-memory one by a
// snapshot written to a synced file and loaded back. It returns the time
// the two halves took. Between them the dropped reasoner is collected,
// untimed: a restarted process starts with an empty heap, and whether the
// collector got to half a gigabyte of garbage inside the rebuild or just
// after it made recover_s bimodal.
func (r *run) rebuild(ctx context.Context) (time.Duration, error) {
	runtime.GC()
	path := filepath.Join(r.dir, "kb.snap")
	dir := r.sys.dir
	t0 := time.Now()
	if !r.w.durable {
		id := r.rec.start(r.phase, "snapshot.save")
		err := saveSnapshot(r.sys.r, path)
		r.rec.end(id)
		if err != nil {
			return 0, err
		}
	}
	err := r.sys.close(ctx)
	r.sys = nil
	if err != nil {
		return 0, fmt.Errorf("recover close: %w", err)
	}
	persist := time.Since(t0)
	runtime.GC()

	t0 = time.Now()
	if r.w.durable {
		r.sys, err = open(ctx, r.w, dir, false)
		return persist + time.Since(t0), err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	id := r.rec.start(r.phase, "snapshot.load")
	re, err := slider.LoadSnapshot(r.w.frag, f, r.w.options()...)
	r.rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("recover load: %w", err)
	}
	r.sys = &system{r: re}
	return persist + time.Since(t0), nil
}

// saveSnapshot writes the reasoner's snapshot to path and syncs it: the
// in-memory workloads' equivalent of a durable close.
func saveSnapshot(r *slider.Reasoner, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.Snapshot(f); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// progress reports where a run is on standard error; standard output is
// kept for the result.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
}
