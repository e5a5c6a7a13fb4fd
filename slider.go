// Package slider is a from-scratch Go implementation of Slider, the
// efficient incremental RDF reasoner of Chevalier, Subercaze, Gravier and
// Laforest (SIGMOD 2015). It performs parallel, incremental
// forward-chaining materialisation over streams of RDF triples: each
// inference rule runs as an independent module with its own buffer and
// distributor over a shared, vertically partitioned in-memory triple
// store, wired together at initialisation time by a rules dependency
// graph. The ρdf and RDFS fragments are built in, and custom rules or
// whole custom fragments plug in through the same Rule interface.
//
// Quick start:
//
//	r := slider.New(slider.RhoDF)
//	defer r.Close(context.Background())
//	r.Add(slider.NewStatement(
//		slider.IRI("http://example.org/Cat"),
//		slider.IRI(slider.SubClassOf),
//		slider.IRI("http://example.org/Animal")))
//	r.Add(slider.NewStatement(
//		slider.IRI("http://example.org/felix"),
//		slider.IRI(slider.Type),
//		slider.IRI("http://example.org/Cat")))
//	r.Wait(context.Background())
//	// felix is now an Animal:
//	r.Contains(slider.NewStatement(
//		slider.IRI("http://example.org/felix"),
//		slider.IRI(slider.Type),
//		slider.IRI("http://example.org/Animal"))) // true
package slider

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/maintenance"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/rules"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/turtle"
	"repro/internal/wal"
)

// Re-exported data-model types. Term and Statement are the parsed
// representation of RDF; ID and Triple are the dictionary-encoded form
// used by rules and the store.
type (
	// Term is one RDF term: an IRI, a blank node or a literal.
	Term = rdf.Term
	// Statement is a triple of Terms.
	Statement = rdf.Statement
	// ID is a dictionary-encoded term identifier: 32 bits, the term
	// kind in bits 31–30 and a per-kind sequence number below 2^30.
	ID = rdf.ID
	// Triple is a dictionary-encoded statement.
	Triple = rdf.Triple
	// Dictionary maps Terms to IDs and back.
	Dictionary = rdf.Dictionary
	// Store is the vertically partitioned triple store.
	Store = store.Store
	// Rule is one inference rule; see CustomRule for assembling your own.
	Rule = rules.Rule
	// Source is the read face a rule joins against — satisfied by the
	// live store and by frozen copy-on-write views alike.
	Source = rules.Source
	// CustomRule adapts a function into a Rule.
	CustomRule = rules.CustomRule
	// DependencyGraph is the rules dependency graph (paper Figure 2).
	DependencyGraph = rules.DependencyGraph
	// Stats is a snapshot of the engine's counters.
	Stats = reasoner.Stats
	// StoreStats is a snapshot of the store's size and compaction
	// counters (runs, unmerged pairs, delete markers, merges).
	StoreStats = store.Stats
	// ModuleStats is one rule module's counters.
	ModuleStats = reasoner.ModuleStats
	// Observer receives fine-grained engine events.
	Observer = reasoner.Observer
	// FlushReason says why a buffer flushed.
	FlushReason = reasoner.FlushReason
)

// Term constructors, re-exported.
var (
	// IRI builds an IRI term.
	IRI = rdf.NewIRI
	// Blank builds a blank-node term.
	Blank = rdf.NewBlank
	// Literal builds a plain literal term.
	Literal = rdf.NewLiteral
	// LangLiteral builds a language-tagged literal term.
	LangLiteral = rdf.NewLangLiteral
	// TypedLiteral builds a datatyped literal term.
	TypedLiteral = rdf.NewTypedLiteral
	// NewStatement builds a Statement from three terms.
	NewStatement = rdf.NewStatement
)

// Well-known vocabulary IRIs.
const (
	// Type is rdf:type.
	Type = rdf.IRIType
	// SubClassOf is rdfs:subClassOf.
	SubClassOf = rdf.IRISubClassOf
	// SubPropertyOf is rdfs:subPropertyOf.
	SubPropertyOf = rdf.IRISubPropertyOf
	// Domain is rdfs:domain.
	Domain = rdf.IRIDomain
	// Range is rdfs:range.
	Range = rdf.IRIRange
	// Resource is rdfs:Resource.
	Resource = rdf.IRIResource
	// Class is rdfs:Class.
	Class = rdf.IRIClass
	// Label is rdfs:label.
	Label = rdf.IRILabel
)

// Fragment selects the ruleset a Reasoner applies.
type Fragment struct {
	name  string
	rules []rules.Rule
}

// Name returns the fragment's name.
func (f Fragment) Name() string { return f.name }

// Rules returns a copy of the fragment's ruleset.
func (f Fragment) Rules() []Rule { return append([]Rule(nil), f.rules...) }

// Built-in fragments.
var (
	// RhoDF is the ρdf fragment: the eight rules of the paper's Figure 2.
	RhoDF = Fragment{name: "rhodf", rules: rules.RhoDF()}
	// RDFS is the RDFS fragment (ρdf plus the RDFS schema rules and
	// resource typing).
	RDFS = Fragment{name: "rdfs", rules: rules.RDFS()}
	// RDFSNoResourceTyping is RDFS without the rdfs4a/rdfs4b rules, for
	// applications that do not want (x type Resource) materialised.
	RDFSNoResourceTyping = Fragment{
		name:  "rdfs-no-resource-typing",
		rules: rules.RDFSWith(rules.RDFSOptions{ResourceTyping: false}),
	}
	// OWLHorst is the OWL-Horst-style extension fragment: RDFS plus
	// symmetric/transitive/inverse property rules, class and property
	// equivalence, and owl:sameAs equality reasoning (the paper's
	// future-work "more complex fragments").
	OWLHorst = Fragment{name: "owl-horst", rules: rules.OWLHorst()}
)

// CustomFragment assembles a fragment from arbitrary rules.
func CustomFragment(name string, ruleset ...Rule) Fragment {
	return Fragment{name: name, rules: ruleset}
}

// Reasoner is the public face of the Slider engine: it owns a dictionary,
// a triple store and the incremental engine, and accepts statements at
// the Term level.
type Reasoner struct {
	dict   *rdf.Dictionary
	store  *store.Store
	engine *reasoner.Engine
	frag   Fragment

	// writeMu is the one writer lock. Its holder alone hands batches to
	// the engine, appends to the write-ahead log, marks a checkpoint,
	// freezes a closure (read-session refresh, retraction phase A) or
	// applies a retraction — so log order is apply order, a freeze never
	// splits a batch, and every read session sees a closed, consistent
	// prefix. Ingest combines under it (see addTriples): callers queue on
	// pending, and whoever takes the lock runs every queued batch. Taken
	// after retractMu and before every other ranked lock (the full order
	// is catalogued in INVARIANTS.md and enforced by cmd/slidervet).
	writeMu sync.Mutex
	// pending is the lock-free stack of batches waiting for writeMu,
	// newest first.
	pending atomic.Pointer[pendingBatch]

	// Shared read-session state (see view.go). viewMu guards the cached
	// current view and viewFlight, which is non-nil while a caller is
	// running the (single) quiesce-and-freeze and is closed when it ends.
	viewMu     sync.Mutex
	viewCur    *sharedView
	viewFlight chan struct{}
	viewMaxAge time.Duration

	// retractMu serializes whole retraction passes: a pass's prepared
	// suspect analysis is keyed to its own frozen view, and DRed passes
	// do not compose concurrently. Taken before every other lock the
	// pass uses.
	retractMu sync.Mutex
	// lastRetract holds the statistics of the most recent completed
	// retraction pass, for LastRetract and the serving layer's /stats;
	// nil until one completes.
	lastRetract atomic.Pointer[RetractStats]

	// dur is the write-ahead-log state of a durable reasoner (Open or
	// WithDurability); nil for in-memory reasoners. See durable.go.
	dur *durability

	// obs holds the reasoner's metrics registry and hot-path
	// instruments. Always non-nil; see metrics.go.
	obs *rmetrics

	// lc attributes the asynchronous tail of a traced batch — inference
	// quiescence and view visibility — back to the batch's flight trace.
	// See lifecycle.go; inert while tracing is disabled.
	lc lifecycle
}

// New builds a Reasoner for the fragment with the given options. If the
// options include WithDurability, New panics when the directory cannot
// be opened or replayed — use Open for the error-returning form.
func New(frag Fragment, opts ...Option) *Reasoner {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.durableDir != "" {
		r, err := openDurable(frag, cfg)
		if err != nil {
			panic(fmt.Sprintf("slider: WithDurability(%q): %v", cfg.durableDir, err))
		}
		return r
	}
	return newReasoner(frag, rdf.NewDictionary(), store.New(), cfg)
}

// LoadSnapshot builds a Reasoner whose dictionary and store are restored
// from a snapshot previously written by Reasoner.Snapshot. The restored
// triples are not re-inferred from (a snapshot of a materialised store
// is already closed) but join with new streamed data, and each keeps
// whether it was asserted or inferred: an asserted one can be retracted
// as if it had been added to this reasoner.
func LoadSnapshot(frag Fragment, rd io.Reader, opts ...Option) (*Reasoner, error) {
	dict, st, err := snapshot.Load(rd)
	if err != nil {
		return nil, err
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.durableDir != "" {
		return nil, fmt.Errorf("slider: LoadSnapshot does not take WithDurability; use Open (durable reasoners checkpoint themselves)")
	}
	return newReasoner(frag, dict, st, cfg), nil
}

// Snapshot persists the reasoner's dictionary and store (explicit plus
// inferred triples) to w in the binary snapshot format. Call Wait first
// to capture a fully materialised state.
func (r *Reasoner) Snapshot(w io.Writer) error {
	return snapshot.Save(w, r.dict, r.store)
}

func newReasoner(frag Fragment, dict *rdf.Dictionary, st *store.Store, cfg config) *Reasoner {
	maxAge := cfg.viewMaxAge
	if maxAge == 0 {
		maxAge = DefaultViewMaxAge
	}
	reg := cfg.reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	st.SetMetrics(store.NewMetrics(reg))
	r := &Reasoner{
		dict:       dict,
		store:      st,
		viewMaxAge: maxAge,
		engine: reasoner.New(st, frag.rules, reasoner.Config{
			BufferSize:      cfg.bufferSize,
			Timeout:         cfg.timeout,
			Workers:         cfg.workers,
			Observer:        cfg.observer,
			Adaptive:        cfg.adaptive,
			TrackProvenance: cfg.provenance,
		}),
		frag: frag,
		obs:  newRMetrics(reg),
	}
	r.lc.r = r
	r.registerBridges()
	return r
}

// Fragment returns the fragment the reasoner runs.
func (r *Reasoner) Fragment() Fragment { return r.frag }

// Dictionary returns the reasoner's term dictionary.
func (r *Reasoner) Dictionary() *Dictionary { return r.dict }

// Store returns the underlying triple store (explicit plus inferred
// triples, dictionary-encoded).
func (r *Reasoner) Store() *Store { return r.store }

// Graph returns the rules dependency graph built at initialisation.
func (r *Reasoner) Graph() *DependencyGraph { return r.engine.Graph() }

// ErrInvalidStatement is wrapped by the error Add and AddBatch return
// for a statement that is not valid RDF.
var ErrInvalidStatement = errors.New("slider: invalid statement")

// Add streams one statement into the reasoner. It returns true if the
// statement was new, and an error if it is not valid RDF (wrapping
// ErrInvalidStatement) or, on a durable reasoner, if the write-ahead log
// rejected it. Add is safe for concurrent use.
func (r *Reasoner) Add(st Statement) (bool, error) {
	if !st.Valid() {
		return false, fmt.Errorf("%w %v", ErrInvalidStatement, st)
	}
	n, err := r.addTriples(context.Background(), []rdf.Triple{r.dict.EncodeStatement(st)})
	return n > 0, err
}

// AddBatch streams a batch of statements into the reasoner and returns
// how many were new. The whole batch takes the engine's batch-first
// ingest path: one grouped store insertion and one routing pass, instead
// of per-statement lock traffic — markedly faster for bulk loads, and the
// path LoadNTriples and LoadTurtle use. If any statement is invalid RDF
// an error wrapping ErrInvalidStatement is returned and nothing is
// added. Concurrent calls are group-committed: whichever caller holds
// the writer lock runs every batch queued behind it, so on a durable
// reasoner they share one log append and fsync, while each caller still
// gets its own fresh count.
func (r *Reasoner) AddBatch(sts []Statement) (int, error) {
	return r.AddBatchCtx(context.Background(), sts)
}

// AddBatchCtx is AddBatch carrying trace context: when ctx holds a
// span (the serving layer's request, say), the batch's whole flight —
// WAL append and fsync, store insertion, rule routing, then
// asynchronously inference quiescence and view visibility — is
// recorded as child spans of it.
func (r *Reasoner) AddBatchCtx(ctx context.Context, sts []Statement) (int, error) {
	for _, st := range sts {
		if !st.Valid() {
			return 0, fmt.Errorf("%w %v", ErrInvalidStatement, st)
		}
	}
	ts := make([]rdf.Triple, len(sts))
	for i, st := range sts {
		ts[i] = r.dict.EncodeStatement(st)
	}
	return r.addTriples(ctx, ts)
}

// AddTriples streams a batch of already-encoded triples (IDs must come
// from this reasoner's Dictionary) and returns how many were new. On a
// durable reasoner a logging failure makes the whole batch a no-op; the
// error is available through AddBatch or Wait.
func (r *Reasoner) AddTriples(ts []Triple) int {
	n, _ := r.addTriples(context.Background(), ts)
	return n
}

// pendingBatch is one caller's batch queued for the writer lock. The
// holder that runs it fills fresh and err and sets done, all under
// writeMu, where the caller reads them back.
type pendingBatch struct {
	ctx   context.Context
	ts    []rdf.Triple
	next  *pendingBatch // queued just before this one
	done  bool
	fresh int
	err   error
}

// addTriples is the single ingest funnel, and it combines: the caller
// pushes its batch onto the pending stack (one atomic push) and takes
// writeMu; unless an earlier holder already ran the batch, it runs every
// queued batch itself (drainLocked). Concurrent writers therefore share
// one lock hand-off — and, on a durable reasoner, one write-ahead-log
// append and fsync — per drain: group commit for every caller.
func (r *Reasoner) addTriples(ctx context.Context, ts []rdf.Triple) (int, error) {
	ctx, sp := trace.Start(ctx, "ingest.batch")
	sp.SetInt("triples", int64(len(ts)))
	defer sp.End()
	if len(ts) == 0 {
		return 0, nil
	}
	b := &pendingBatch{ctx: ctx, ts: ts}
	for {
		b.next = r.pending.Load()
		if r.pending.CompareAndSwap(b.next, b) {
			break
		}
	}
	r.writeMu.Lock()
	if !b.done {
		r.drainLocked(b)
	}
	r.writeMu.Unlock()
	if b.err != nil {
		sp.Error(b.err.Error())
	}
	return b.fresh, b.err
}

// drainLocked runs every queued batch in arrival order, with writeMu
// held; self is the draining caller's own. A durable reasoner checks its
// write refusal once and logs the batches as one record — one term
// delta, one fsync — before the engine sees any of them, so an
// acknowledged batch is recoverable and replay order is application
// order; a failed append fails them all. self's context carries the
// append's span, and every batch's span records how many batches shared
// the drain (wal.batches) and whether its own caller ran it
// (wal.drained_by_self), so each rider's trace shows the group commit
// its acknowledgement waited on.
func (r *Reasoner) drainLocked(self *pendingBatch) {
	var batches []*pendingBatch
	for b := r.pending.Swap(nil); b != nil; b = b.next {
		batches = append(batches, b)
	}
	slices.Reverse(batches)
	r.obs.ingestFlushes.Inc()
	if len(batches) > 1 {
		r.obs.ingestCoalesced.Add(int64(len(batches)))
	}
	if r.dur != nil {
		for _, b := range batches {
			sp := trace.FromContext(b.ctx)
			sp.SetInt("wal.batches", int64(len(batches)))
			sp.SetStr("wal.drained_by_self", strconv.FormatBool(b == self))
		}
		err := r.logAssertLocked(self.ctx, concat(batches))
		if errors.Is(err, wal.ErrRejected) && len(batches) > 1 {
			// A rejection (a wildcard ID, an oversized record) is one
			// caller's problem: log the batches one by one so that only
			// the offender fails.
			err = nil
			kept := batches[:0]
			for _, b := range batches {
				if b.err = r.logAssertLocked(b.ctx, b.ts); b.err != nil {
					b.done = true
				} else {
					kept = append(kept, b)
				}
			}
			batches = kept
		}
		if err != nil {
			for _, b := range batches {
				b.done, b.err = true, err
			}
			return
		}
	}
	r.applyAssert(batches)
	if r.dur != nil {
		r.maybeCheckpointLocked()
	}
}

// concat returns the batches' triples as one slice.
func concat(batches []*pendingBatch) []rdf.Triple {
	if len(batches) == 1 {
		return batches[0].ts
	}
	n := 0
	for _, b := range batches {
		n += len(b.ts)
	}
	all := make([]rdf.Triple, 0, n)
	for _, b := range batches {
		all = append(all, b.ts...)
	}
	return all
}

// logAssertLocked appends one assert record to the write-ahead log,
// with writeMu held, and classifies a failure (see writeFault).
func (r *Reasoner) logAssertLocked(ctx context.Context, ts []rdf.Triple) error {
	d := r.dur
	if err := d.getErr(); err != nil {
		return err
	}
	hwI, hwB, hwL := d.termMarks()
	if err := d.log.AppendCtx(ctx, wal.Record{Op: wal.OpAssert, Terms: d.termDelta(r.dict), Triples: ts}); err != nil {
		d.rewindTerms(hwI, hwB, hwL)
		return d.writeFault(err)
	}
	return nil
}

// applyAssert hands each batch to the engine in order — every caller
// keeps its own fresh count and its own span tree, and its asynchronous
// tail (inference rounds still running, the view refresh that will make
// the batch visible) goes to the lifecycle watcher as children of the
// batch's span. The engine stores each batch as explicit, so every
// asserted triple becomes an axiom, even one the engine already derived:
// whether a statement was inferred first is a race against asynchronous
// inference, and axiom-hood must not depend on timing (replay after a
// crash would reproduce a different interleaving and hence a different
// set of axioms). Called with writeMu held, or by replay before the
// reasoner is shared.
func (r *Reasoner) applyAssert(batches []*pendingBatch) {
	m := r.obs
	for _, b := range batches {
		t0 := obs.NowIfEnabled()
		b.fresh = len(r.engine.AddBatchCtx(b.ctx, b.ts))
		b.done = true
		m.ingestSeconds.ObserveSince(t0)
		m.ingestBatch.Observe(float64(len(b.ts)))
		m.ingestBatches.Inc()
		m.ingestTriples.Add(int64(len(b.ts)))
		if sp := trace.FromContext(b.ctx); sp != nil {
			r.lc.track(sp, r.store.Version())
		}
	}
}

// RetractStats reports what a Retract call did.
type RetractStats = maintenance.Stats

// Retract removes explicit statements and incrementally maintains the
// materialisation using delete-and-rederive (DRed): consequences that
// lose their last derivation disappear; consequences with alternative
// derivations survive; a retracted statement that is still derivable
// stays, as an inferred one. Statements that were never asserted are
// ignored. Every reasoner can retract: its store records which triples
// were asserted. On a durable reasoner the deletion batch is logged
// before it is applied, so the retraction survives a restart.
//
// The pass is two-phase, and its cost to concurrent writers is bounded
// by the suspect set, not the store. Phase A freezes a copy-on-write
// view of the materialised closure (a brief quiescence drain, as for a
// checkpoint mark or a read-session refresh) and analyses it while
// ingest continues: overdeletion from the retracted triples, then a
// targeted backward support check per suspect ("does any rule derive
// you from premises outside the suspect set?") with forward propagation
// seeded only by restored suspects. Phase B takes the writer lock for
// a short exclusive validate-and-apply window: suspects are re-checked
// against whatever landed mid-pass, the final dead set is removed, and
// writers resume. Cancelling ctx during phase A (or before phase B's
// log append) leaves the knowledge base untouched and healthy; once the
// retraction is logged the apply step is uninterruptible, so the live
// state can never diverge from what replay would reconstruct.
//
// Rulesets containing a CustomRule without a SupportsFn fall back to
// classic DRed: the whole
// delete-and-rederive runs inside the exclusive window and rederives
// from the full surviving store.
func (r *Reasoner) Retract(ctx context.Context, sts ...Statement) (RetractStats, error) {
	var toDelete []rdf.Triple
	for _, st := range sts {
		t, ok := r.lookup(st)
		if ok {
			toDelete = append(toDelete, t)
		}
	}
	// One retraction at a time: a pass's prepared analysis is keyed to
	// its own frozen view, and DRed passes do not compose concurrently.
	// Taken before every other lock the pass uses.
	r.retractMu.Lock()
	defer r.retractMu.Unlock()
	if len(toDelete) == 0 {
		// Nothing can be explicit; keep the quiescence contract and the
		// write-refusal behaviour of a failed reasoner.
		if err := r.engine.Wait(ctx); err != nil {
			return RetractStats{}, err
		}
		return RetractStats{}, r.durErr()
	}

	var pass *maintenance.Pass
	var prepareMicros int64
	if rules.AllSupport(r.frag.rules) {
		// Phase A: freeze a consistent closure, then run the read-only
		// suspect analysis against it while ingest continues.
		prepStart := time.Now()
		sv, err := r.freezeClosure(ctx)
		if err != nil {
			return RetractStats{}, err
		}
		pass, err = maintenance.Prepare(ctx, sv, r.frag.rules, toDelete)
		if err != nil {
			return RetractStats{}, err
		}
		prepareMicros = time.Since(prepStart).Microseconds()
		r.obs.retractPrepare.ObserveDuration(time.Since(prepStart))
	}

	// Phase B: the exclusive validate-and-apply window. The writer lock
	// keeps every other writer out of the log and the store, the engine
	// drains, and — durable only — the retraction is logged. From the log
	// append on, the pass is uninterruptible: Pass.Apply takes no
	// context, performs no I/O and cannot fail, so the live state never
	// diverges from what replay would reconstruct.
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if err := r.durErr(); err != nil {
		return RetractStats{}, err
	}
	exStart := time.Now()
	if err := r.engine.Wait(ctx); err != nil {
		return RetractStats{}, err
	}
	if pass == nil {
		// Fallback: classic DRed. The read-only overdelete runs here,
		// inside the exclusive window, so cancellation still leaves the
		// store intact; the O(store) rederive follows in Apply.
		var err error
		pass, err = maintenance.PrepareFull(ctx, r.store, r.frag.rules, toDelete)
		if err != nil {
			return RetractStats{}, err
		}
	}
	if err := ctx.Err(); err != nil { // last cancellation point
		return RetractStats{}, err
	}
	if r.dur != nil {
		hwI, hwB, hwL := r.dur.termMarks()
		rec := wal.Record{Op: wal.OpRetract, Terms: r.dur.termDelta(r.dict), Triples: toDelete}
		if err := r.dur.log.Append(rec); err != nil {
			r.dur.rewindTerms(hwI, hwB, hwL)
			return RetractStats{}, r.dur.writeFault(err)
		}
	}
	stats := pass.Apply(r.store)
	exclusive := time.Since(exStart)
	stats.ExclusiveMicros = exclusive.Microseconds()
	stats.PrepareMicros = prepareMicros
	r.obs.retractApply.ObserveDuration(exclusive)
	r.obs.retractTotal.Inc()
	r.lastRetract.Store(&stats)
	return stats, nil
}

// LastRetract returns the statistics of the most recent completed
// retraction pass, and whether any has completed — the numbers behind
// the serving layer's /stats retraction block.
func (r *Reasoner) LastRetract() (RetractStats, bool) {
	if st := r.lastRetract.Load(); st != nil {
		return *st, true
	}
	return RetractStats{}, false
}

// loadChunkSize is how many parsed statements the loaders accumulate
// before handing them to the batch ingest path. Large enough to amortise
// per-batch routing, small enough to keep parsing and inference
// overlapped.
const loadChunkSize = 512

// loadStream drains a statement source in loadChunkSize batches through
// AddBatch, returning the number of statements streamed.
func (r *Reasoner) loadStream(read func() (Statement, error)) (int, error) {
	n := 0
	chunk := make([]Statement, 0, loadChunkSize)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		_, err := r.AddBatch(chunk)
		chunk = chunk[:0]
		return err
	}
	for {
		st, err := read()
		if err == io.EOF {
			return n, flush()
		}
		if err != nil {
			if ferr := flush(); ferr != nil {
				return n, ferr
			}
			return n, err
		}
		chunk = append(chunk, st)
		n++
		if len(chunk) == loadChunkSize {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
}

// LoadNTriples parses an N-Triples document from rd and streams every
// statement into the reasoner in batches, returning the number of
// statements read. Parsing and inference overlap, as with Slider's
// streaming input manager: each chunk of parsed statements enters the
// engine's batch ingest path while the next chunk is being parsed.
func (r *Reasoner) LoadNTriples(rd io.Reader) (int, error) {
	return r.loadStream(ntriples.NewReader(rd).Read)
}

// LoadTurtle parses a Turtle document from rd and streams every statement
// into the reasoner in batches, returning the number of statements read.
func (r *Reasoner) LoadTurtle(rd io.Reader) (int, error) {
	return r.loadStream(turtle.NewReader(rd).Read)
}

// Wait blocks until inference over everything added so far has
// completed. On a durable reasoner it also surfaces any write-ahead-log
// failure: once the log errors, the reasoner stops accepting writes.
func (r *Reasoner) Wait(ctx context.Context) error {
	if err := r.engine.Wait(ctx); err != nil {
		return err
	}
	if err := r.engine.Err(); err != nil {
		return err
	}
	return r.durErr()
}

// Err reports, without blocking on inference or I/O, the first failure
// the reasoner has recorded: a rule panic, or — on durable reasoners —
// a write-ahead-log or background-checkpoint failure. Background
// checkpoints run off the caller's goroutines, so their failures would
// otherwise surface only as a confusing sticky error on the *next*
// write; poll Err (or check it after Wait) to see them as they happen.
// Once non-nil the reasoner refuses further writes with the same error.
func (r *Reasoner) Err() error {
	if err := r.engine.Err(); err != nil {
		return err
	}
	return r.durErr()
}

// Close drains outstanding inference and releases the engine's
// goroutines. A durable reasoner additionally takes a final checkpoint
// (unless disabled with a negative WithCheckpointEvery) and closes the
// log, so a clean shutdown recovers without replaying any tail. The
// reasoner must not be used afterwards.
func (r *Reasoner) Close(ctx context.Context) error {
	// Settle pending batch-lifecycle spans first so their traces
	// complete (and the watcher goroutine exits) before teardown.
	r.lc.close()
	// Drop the cached read-session view: open sessions keep theirs and
	// stay readable (a frozen view is pure data), but the cache slot
	// must not pin the store's runs past shutdown.
	r.viewMu.Lock()
	r.viewCur = nil
	r.viewMu.Unlock()
	if r.dur == nil {
		if err := r.engine.Close(ctx); err != nil {
			return err
		}
		return r.engine.Err()
	}
	return r.closeDurable(ctx)
}

// Contains reports whether the statement is present (explicit or
// inferred). Unknown terms make the answer trivially false.
func (r *Reasoner) Contains(st Statement) bool {
	t, ok := r.lookup(st)
	if !ok {
		return false
	}
	return r.store.Contains(t)
}

func (r *Reasoner) lookup(st Statement) (Triple, bool) {
	s, ok1 := r.dict.Lookup(st.S)
	p, ok2 := r.dict.Lookup(st.P)
	o, ok3 := r.dict.Lookup(st.O)
	return rdf.T(s, p, o), ok1 && ok2 && ok3
}

// Len returns the number of distinct triples in the store (explicit plus
// inferred).
func (r *Reasoner) Len() int { return r.store.Len() }

// Stats returns a snapshot of the engine's counters.
func (r *Reasoner) Stats() Stats { return r.engine.Stats() }

// StoreStats returns a snapshot of the store's size and compaction
// counters: runs, add and delete-marker pairs, pairs not yet merged into
// their partition's oldest run, and cumulative merge/purge work.
func (r *Reasoner) StoreStats() StoreStats { return r.store.Stats() }

// Statements calls f for every triple in the store, decoded to Terms,
// until f returns false. It walks one root of the store — a consistent
// snapshot, whatever is written meanwhile — in unspecified order.
func (r *Reasoner) Statements(f func(Statement) bool) {
	r.store.Freeze().ForEach(func(t Triple) bool {
		st, ok := r.dict.DecodeTriple(t)
		return !ok || f(st)
	})
}

// Query returns all statements matching a pattern where zero-value Terms
// act as wildcards. E.g. Query(Statement{P: IRI(Type)}) returns every
// typing statement.
func (r *Reasoner) Query(pattern Statement) []Statement {
	enc := func(t Term) (ID, bool) {
		if t.IsZero() {
			return rdf.Any, true
		}
		return r.dict.Lookup(t)
	}
	s, ok1 := enc(pattern.S)
	p, ok2 := enc(pattern.P)
	o, ok3 := enc(pattern.O)
	if !ok1 || !ok2 || !ok3 {
		return nil
	}
	matches := r.store.Match(rdf.T(s, p, o))
	out := make([]Statement, 0, len(matches))
	for _, m := range matches {
		if st, ok := r.dict.DecodeTriple(m); ok {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// ProvenanceExplicit is the origin Why reports for asserted statements.
const ProvenanceExplicit = reasoner.ProvenanceExplicit

// Why reports how a statement entered the knowledge base:
// ProvenanceExplicit for asserted statements, or the name of the rule
// that first derived it. Requires WithProvenance; ok is false for
// unknown statements or when tracking is off.
func (r *Reasoner) Why(st Statement) (origin string, ok bool) {
	t, found := r.lookup(st)
	if !found {
		return "", false
	}
	return r.engine.Provenance(t)
}

// Binding is one solution of a Select query: variable name → term.
type Binding = query.Binding

// Select runs a SPARQL-like SELECT query (basic graph patterns only)
// against the materialised store. Example:
//
//	rows, err := r.Select(`
//	    SELECT ?name WHERE {
//	        ?p a <http://example.org/Product> .
//	        ?p rdfs:label ?name .
//	    }`)
//
// Inference runs ahead of querying: call Wait first if you need answers
// over everything added so far.
func (r *Reasoner) Select(text string) ([]Binding, error) {
	q, err := query.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	return r.SelectQuery(q)
}

// SelectQuery runs an already-built query (see internal/query for the
// pattern API re-exported below).
func (r *Reasoner) SelectQuery(q query.Query) ([]Binding, error) {
	return query.Execute(context.Background(), r.store, r.dict, q, r.obs.query, nil)
}

// Explain is a query's execution profile: the join order the planner
// chose (vs the written order), per-pattern estimated vs actual rows,
// whether the sorted-extent galloping path ran, and per-stage timings.
type Explain = query.Explain

// SelectExplain is Select returning, alongside the solutions, the
// execution profile — `slider -query ... -explain` and the serving
// layer's ?explain=1 are built on it.
func (r *Reasoner) SelectExplain(text string) ([]Binding, *Explain, error) {
	q, err := query.ParseSelect(text)
	if err != nil {
		return nil, nil, err
	}
	ex := &query.Explain{}
	rows, err := query.Execute(context.Background(), r.store, r.dict, q, r.obs.query, ex)
	if err != nil {
		return nil, nil, err
	}
	return rows, ex, nil
}

// Export writes every triple in the store (explicit plus inferred) to w
// as N-Triples, in unspecified order.
func (r *Reasoner) Export(w io.Writer) error {
	nw := ntriples.NewWriter(w)
	var err error
	r.Statements(func(st Statement) bool {
		err = nw.Write(st)
		return err == nil
	})
	if err != nil {
		return err
	}
	return nw.Flush()
}

// ExportTurtle writes every triple in the store to w as Turtle, with the
// standard prefixes plus any extra ("prefix", "namespace") pairs, grouped
// by subject.
func (r *Reasoner) ExportTurtle(w io.Writer, prefixes map[string]string) error {
	tw := turtle.NewWriter(w)
	for name, ns := range prefixes {
		tw.Prefix(name, ns)
	}
	var err error
	r.Statements(func(st Statement) bool {
		err = tw.Write(st)
		return err == nil
	})
	if err != nil {
		return err
	}
	return tw.Flush()
}
