package reasoner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/trace"
)

// module binds one inference rule to its buffer and counters — the
// paper's "rule module". Rule-module *instances* are the tasks spawned by
// buffer flushes.
type module struct {
	rule rules.Rule
	buf  *buffer
	c    moduleCounters
	// idx is the module's position in Engine.modules; batch routing uses
	// it to bucket triples per destination module.
	idx int
	// zeroStreak counts consecutive fruitless executions (adaptive
	// scheduling heuristic; approximate under concurrency by design).
	zeroStreak atomic.Int32
}

// Engine is the Slider reasoner.
type Engine struct {
	cfg   Config
	store *store.Store
	graph *rules.DependencyGraph

	modules []*module
	// byPred routes triples to the modules whose rule consumes the
	// triple's predicate; universal modules receive everything.
	byPred    map[rdf.ID][]*module
	universal []*module

	pool *pool
	// inflight counts units of unfinished work: every triple sitting in
	// a buffer or inside a queued or running instance's delta contributes
	// one. Quiescence (inference complete) is inflight == 0.
	inflight atomic.Int64
	// busy counts instances queued or running: at zero, whatever is
	// outstanding sits in buffers.
	busy atomic.Int64
	// idle is the quiescence wake-up, raised on every transition that
	// can make a parked waiter's condition true (see wake.go).
	idle wake

	input      atomic.Int64
	dupInput   atomic.Int64
	inferred   atomic.Int64
	duplicates atomic.Int64

	// armed re-arms the parked timeout scanner on the inflight 0→>0
	// transition; its one slot keeps a kick sent before the scanner parks.
	armed        chan struct{}
	scans        atomic.Int64 // scanner passes, for tests
	stopTimeouts chan struct{}
	timeoutsDone sync.WaitGroup
	closed       atomic.Bool

	panicMu  sync.Mutex
	panicErr error

	// provenance maps triples to the rule that first derived them (or
	// ProvenanceExplicit); nil unless Config.TrackProvenance.
	provMu     sync.Mutex
	provenance map[rdf.Triple]string
}

// ProvenanceExplicit marks explicitly asserted triples in provenance
// lookups.
const ProvenanceExplicit = "explicit"

// New builds an engine over the given store and ruleset. The store may
// already contain triples; they participate in joins as background
// knowledge but are not re-derived from (stream them through Add to infer
// from them).
func New(st *store.Store, ruleset []rules.Rule, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:          cfg,
		store:        st,
		graph:        rules.BuildDependencyGraph(ruleset),
		byPred:       make(map[rdf.ID][]*module),
		armed:        make(chan struct{}, 1),
		stopTimeouts: make(chan struct{}),
	}
	e.idle.init()
	for i, r := range ruleset {
		m := &module{rule: r, buf: newBuffer(cfg.BufferSize), idx: i}
		e.modules = append(e.modules, m)
		if ins := r.Inputs(); ins == nil {
			e.universal = append(e.universal, m)
		} else {
			for _, p := range ins {
				e.byPred[p] = append(e.byPred[p], m)
			}
		}
	}
	if cfg.TrackProvenance {
		e.provenance = make(map[rdf.Triple]string)
	}
	e.pool = newPool(cfg.Workers, e.runInstance)
	e.timeoutsDone.Add(1)
	go e.timeoutLoop()
	return e
}

// recordProvenanceBatch notes the origin of a batch of fresh triples
// under one lock acquisition.
func (e *Engine) recordProvenanceBatch(ts []rdf.Triple, origin string) {
	if e.provenance == nil {
		return
	}
	e.provMu.Lock()
	for _, t := range ts {
		if _, dup := e.provenance[t]; !dup {
			e.provenance[t] = origin
		}
	}
	e.provMu.Unlock()
}

// Provenance reports how a triple entered the store: ProvenanceExplicit
// for asserted triples, the deriving rule's name for inferred ones.
// ok=false when the triple is unknown or provenance tracking is off.
func (e *Engine) Provenance(t rdf.Triple) (string, bool) {
	if e.provenance == nil {
		return "", false
	}
	e.provMu.Lock()
	defer e.provMu.Unlock()
	origin, ok := e.provenance[t]
	return origin, ok
}

// Store returns the engine's triple store.
func (e *Engine) Store() *store.Store { return e.store }

// Graph returns the rules dependency graph built at initialisation.
func (e *Engine) Graph() *rules.DependencyGraph { return e.graph }

// Add streams one explicit triple into the reasoner. It returns true if
// the triple was new. Add is safe for concurrent use; multiple input
// managers can feed the engine in parallel. Adding to a closed engine
// returns false.
func (e *Engine) Add(t rdf.Triple) bool {
	return len(e.AddBatch([]rdf.Triple{t})) == 1
}

// AddBatch streams a batch of explicit triples and returns those that
// were new, grouped by predicate (see store.Store.AssertBatch, which
// also marks a triple already inferred as explicit). The whole batch
// takes one store insertion (grouped by predicate partition), one
// routing pass that buckets triples per destination module, and one
// buffer-lock acquisition per module — the batch-first ingest path.
// AddBatch is safe for concurrent use; adding to a closed engine is a
// no-op.
func (e *Engine) AddBatch(ts []rdf.Triple) []rdf.Triple {
	return e.AddBatchCtx(context.Background(), ts)
}

// AddBatchCtx is AddBatch carrying trace context: when ctx holds a
// span, the store insertion and the routing pass appear as child spans
// in the batch's flight trace.
func (e *Engine) AddBatchCtx(ctx context.Context, ts []rdf.Triple) []rdf.Triple {
	if e.closed.Load() || len(ts) == 0 {
		return nil
	}
	sp := trace.FromContext(ctx)
	// Store first, then route: this ordering guarantees that whenever a
	// rule instance runs, the store contains every triple of its delta,
	// so delta⋈store joins subsume delta⋈delta (see package rules).
	st := sp.Child("store.addbatch")
	fresh := e.store.AssertBatch(ts)
	st.SetInt("fresh", int64(len(fresh)))
	st.End()
	if dup := len(ts) - len(fresh); dup > 0 {
		e.dupInput.Add(int64(dup))
	}
	if len(fresh) == 0 {
		return nil
	}
	e.input.Add(int64(len(fresh)))
	e.recordProvenanceBatch(fresh, ProvenanceExplicit)
	if obs := e.cfg.Observer; obs != nil {
		for _, t := range fresh {
			obs.OnInput(t)
		}
	}
	rt := sp.Child("engine.route")
	e.routeBatch(fresh)
	rt.End()
	return fresh
}

// route places t into the buffer of every module whose rule consumes its
// predicate (plus all universal-input modules), flushing buffers that
// reach capacity.
func (e *Engine) route(t rdf.Triple) {
	obs := e.cfg.Observer
	for _, m := range e.byPred[t.P] {
		e.deliver(m, t, obs)
	}
	for _, m := range e.universal {
		e.deliver(m, t, obs)
	}
	e.routed()
}

// routed ends a routing pass: triples buffered under an idle pool are
// work only a parked waiter's flush will start, so it is woken (under a
// busy pool the last instance to finish does that). One atomic load
// when nobody waits.
func (e *Engine) routed() {
	if e.idle.parked.Load() > 0 && e.busy.Load() == 0 {
		e.idle.raise()
	}
}

// enter accounts n triples entering a buffer and, on the 0→>0
// transition, re-arms the parked timeout scanner.
func (e *Engine) enter(n int) {
	if e.inflight.Add(int64(n)) == int64(n) {
		select {
		case e.armed <- struct{}{}:
		default:
		}
	}
}

func (e *Engine) deliver(m *module, t rdf.Triple, obs Observer) {
	e.enter(1)
	m.c.routed.Add(1)
	if obs != nil {
		obs.OnRoute(m.rule.Name(), t)
	}
	if batch := m.buf.add(t); batch != nil {
		m.c.bufferFullFlushes.Add(1)
		if obs != nil {
			obs.OnFlush(m.rule.Name(), FlushFull, len(batch))
		}
		e.submit(m, batch)
	}
}

// routeBatch routes a batch of fresh triples: triples are bucketed per
// destination module in one pass, then each module takes one inflight
// update and one buffer-lock acquisition for its whole bucket.
func (e *Engine) routeBatch(ts []rdf.Triple) {
	if len(ts) == 1 {
		e.route(ts[0])
		return
	}
	buckets := make([][]rdf.Triple, len(e.modules))
	for _, t := range ts {
		for _, m := range e.byPred[t.P] {
			buckets[m.idx] = append(buckets[m.idx], t)
		}
		for _, m := range e.universal {
			buckets[m.idx] = append(buckets[m.idx], t)
		}
	}
	obs := e.cfg.Observer
	for i, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		e.deliverBatch(e.modules[i], bucket, obs)
	}
	e.routed()
}

func (e *Engine) deliverBatch(m *module, ts []rdf.Triple, obs Observer) {
	e.enter(len(ts))
	m.c.routed.Add(int64(len(ts)))
	if obs != nil {
		for _, t := range ts {
			obs.OnRoute(m.rule.Name(), t)
		}
	}
	if batch := m.buf.addBatch(ts); batch != nil {
		m.c.bufferFullFlushes.Add(1)
		if obs != nil {
			obs.OnFlush(m.rule.Name(), FlushFull, len(batch))
		}
		e.submit(m, batch)
	}
}

// submit schedules a rule-module instance; if the pool is stopped the
// delta's work units are released so Wait cannot hang.
func (e *Engine) submit(m *module, delta []rdf.Triple) {
	e.busy.Add(1)
	if !e.pool.submit(task{m: m, delta: delta}) {
		e.finish(len(delta))
	}
}

// finish retires one instance and its n work units; the one that leaves
// the pool idle wakes the waiters — inference has quiesced, or what is
// left is buffered and theirs to flush.
func (e *Engine) finish(n int) {
	e.inflight.Add(int64(-n))
	if e.busy.Add(-1) == 0 {
		e.idle.raise()
	}
}

// runInstance executes one rule-module instance: the delta⋈store join
// followed by distribution of the inferred triples (paper's Distributor).
func (e *Engine) runInstance(tk task) {
	defer e.finish(len(tk.delta))
	m := tk.m
	m.c.executions.Add(1)

	var out []rdf.Triple
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.recordPanic(fmt.Errorf("reasoner: rule %s panicked: %v", m.rule.Name(), r))
			}
		}()
		m.rule.Apply(e.store, tk.delta, func(t rdf.Triple) { out = append(out, t) })
	}()

	// Distribute: deduplicate against the store in one batch insertion,
	// then route only fresh triples onward — the "duplicates limitation"
	// mechanism.
	freshTriples := e.store.AddBatch(out)
	fresh := len(freshTriples)
	if dup := len(out) - fresh; dup > 0 {
		e.duplicates.Add(int64(dup))
	}
	if fresh > 0 {
		e.inferred.Add(int64(fresh))
		m.c.fresh.Add(int64(fresh))
		e.recordProvenanceBatch(freshTriples, m.rule.Name())
		e.routeBatch(freshTriples)
	}
	m.c.derived.Add(int64(len(out)))
	if obs := e.cfg.Observer; obs != nil {
		obs.OnExecute(m.rule.Name(), len(tk.delta), len(out), fresh)
	}
	if e.cfg.Adaptive {
		e.adapt(m, fresh)
	}
}

func (e *Engine) recordPanic(err error) {
	e.panicMu.Lock()
	if e.panicErr == nil {
		e.panicErr = err
	}
	e.panicMu.Unlock()
}

// Err returns the first rule panic captured, if any. A panicking rule
// instance is isolated: the engine keeps running and completes inference
// for the remaining rules.
func (e *Engine) Err() error {
	e.panicMu.Lock()
	defer e.panicMu.Unlock()
	return e.panicErr
}

// timeoutLoop is the buffer-staleness scanner: a single goroutine flushes
// buffers that sat inactive past the configured timeout. It ticks only
// while work is outstanding; a quiescent engine parks it on armed.
func (e *Engine) timeoutLoop() {
	defer e.timeoutsDone.Done()
	interval := e.cfg.Timeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		for e.inflight.Load() == 0 {
			ticker.Stop()
			select {
			case <-e.stopTimeouts:
				return
			case <-e.armed:
			}
			ticker.Reset(interval)
		}
		select {
		case <-e.stopTimeouts:
			return
		case now := <-ticker.C:
			e.scans.Add(1)
			for _, m := range e.modules {
				if batch := m.buf.takeStale(e.cfg.Timeout, now); batch != nil {
					m.c.timeoutFlushes.Add(1)
					if obs := e.cfg.Observer; obs != nil {
						obs.OnFlush(m.rule.Name(), FlushTimeout, len(batch))
					}
					e.submit(m, batch)
				}
			}
		}
	}
}

// flushAll force-flushes every non-empty buffer (used while draining).
func (e *Engine) flushAll() {
	for _, m := range e.modules {
		if batch := m.buf.takeAll(); batch != nil {
			m.c.explicitFlushes.Add(1)
			if obs := e.cfg.Observer; obs != nil {
				obs.OnFlush(m.rule.Name(), FlushExplicit, len(batch))
			}
			e.submit(m, batch)
		}
	}
}

// Wait blocks until inference has quiesced: every buffer is empty and no
// rule-module instance is running or queued. It force-flushes buffers
// while waiting, so it does not wait out buffer timeouts — but only when
// all outstanding work is sitting in buffers (no instance is running or
// queued), so draining does not fragment inference into tiny deltas while
// the thread pool is busy. Concurrent Add calls extend the wait; ctx
// aborts it.
//
// Quiescence is an event: a waiter parks on the engine's wake-up, raised
// by the instance that leaves the pool idle, by a routing pass that
// buffers triples under an idle pool, and by Close.
func (e *Engine) Wait(ctx context.Context) error { return e.await(ctx, true) }

// Quiesced blocks like Wait but never flushes a buffer, so observing
// quiescence does not perturb it (the batch-lifecycle watcher's view).
func (e *Engine) Quiesced(ctx context.Context) error { return e.await(ctx, false) }

func (e *Engine) await(ctx context.Context, drain bool) error {
	e.idle.parked.Add(1)
	defer e.idle.parked.Add(-1)
	for {
		// Generation first, look second: a raise after the look closes
		// this very channel.
		woken := e.idle.gen()
		if e.inflight.Load() == 0 {
			return nil
		}
		// An idle pool means everything left is buffered, and nothing
		// will flush it except a (slow) timeout — do it now.
		if drain && e.busy.Load() == 0 {
			e.flushAll()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-woken:
		case <-e.strandedCheck():
			e.assertNotStranded(woken)
		}
	}
}

// Close drains outstanding work (bounded by ctx) and releases the
// engine's goroutines. The engine must not be used afterwards.
func (e *Engine) Close(ctx context.Context) error {
	if e.closed.Swap(true) {
		return nil
	}
	err := e.Wait(ctx)
	close(e.stopTimeouts)
	e.timeoutsDone.Wait()
	e.pool.stop()
	// From here a flush releases its delta (submit on a stopped pool):
	// anyone still parked looks again.
	e.idle.raise()
	return err
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Input:          e.input.Load(),
		DuplicateInput: e.dupInput.Load(),
		Inferred:       e.inferred.Load(),
		Duplicates:     e.duplicates.Load(),
	}
	for _, m := range e.modules {
		ms := ModuleStats{
			Rule:              m.rule.Name(),
			Routed:            m.c.routed.Load(),
			Executions:        m.c.executions.Load(),
			BufferFullFlushes: m.c.bufferFullFlushes.Load(),
			TimeoutFlushes:    m.c.timeoutFlushes.Load(),
			ExplicitFlushes:   m.c.explicitFlushes.Load(),
			Derived:           m.c.derived.Load(),
			Fresh:             m.c.fresh.Load(),
			BufferCapacity:    m.buf.capacity(),
			CapacityGrows:     m.c.capacityGrows.Load(),
			CapacityShrinks:   m.c.capacityShrinks.Load(),
		}
		s.Executions += ms.Executions
		s.Modules = append(s.Modules, ms)
	}
	return s
}
