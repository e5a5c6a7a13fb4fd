// Read sessions: snapshot-isolated query handles over frozen store
// views.
//
// A View pins a consistent, fully-materialised state of the knowledge
// base — the closure of every batch acknowledged before the snapshot was
// taken — and answers queries against it no matter how far the live
// store has moved on. Writers never wait on a running query: a store
// view is one immutable root of the store (internal/store) and writers
// publish new roots, so an open session costs writers nothing; it only
// keeps the runs it holds from being collected. A snapshot is plain
// data: nothing counts its readers, and it is freed by the garbage
// collector once neither the cache slot nor any session points at it.
//
// Capturing a fresh snapshot does require a safe point: the engine is
// drained under the writer lock (Reasoner.writeMu), which briefly
// excludes writers, exactly like a checkpoint's mark phase. To keep that cost off the
// query path, sessions share snapshots: View() reuses the current one
// when the store has not changed — or changed less than ViewMaxAge ago —
// and only quiesces when the snapshot is both stale and old. Under a
// steady mixed workload the refresh rate is bounded by ViewMaxAge, not
// by query rate. One refresh runs at a time; what a caller arriving
// meanwhile gets depends on the minimum version it needs (viewAtLeast).
// A caller that needs nothing newer than the cache is served the
// previous snapshot at once. A caller that needs its own acknowledged
// writes (ViewMaxAge < 0) waits for the refresh and, if that one froze
// before the write, runs the next.
package slider

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/trace"
)

// DefaultViewMaxAge is how stale a shared read-session snapshot may get
// before View() quiesces the engine and captures a fresh one.
const DefaultViewMaxAge = 100 * time.Millisecond

// sharedView is one store snapshot handed out to (and shared by) read
// sessions, cached in Reasoner.viewCur.
type sharedView struct {
	sv   *store.View // its Version is the store version at freeze
	born time.Time
}

// View is a read session: a consistent snapshot of the materialised
// store at some acknowledged point, plus the dictionary to speak Terms.
// All methods answer from the snapshot — concurrent writes are invisible
// — and never block writers. Holding a session keeps its snapshot's
// runs alive.
type View struct {
	r      *Reasoner
	shared *sharedView
}

// View returns a read session pinned to a consistent snapshot of the
// knowledge base: the closure of every batch whose Add/AddBatch returned
// before the snapshot was taken (batches acknowledged later are
// invisible). Sessions are cheap — concurrent callers share one
// underlying snapshot, refreshed at most every ViewMaxAge while the
// store is changing — and a session never blocks writers. ctx bounds the
// quiescence wait a refresh may need.
//
// Under a negative ViewMaxAge ("always current") the session is at or
// past the store version observed at the call, so a caller finds its
// own acknowledged batches, inferences included, in the first session
// it opens (read-your-writes).
func (r *Reasoner) View(ctx context.Context) (*View, error) {
	var need uint64
	if r.viewMaxAge < 0 {
		need = r.store.Version()
	}
	return r.viewAtLeast(ctx, need)
}

// viewAtLeast is the one serving rule. The cached snapshot is served iff
// it is at or past need and is current (store unchanged), young enough,
// or being refreshed by someone else — only the claiming caller pays
// for a refresh, so writers see at most one drain per ViewMaxAge no
// matter the query rate. A caller the cache cannot serve joins the
// refresh in flight (bounded by ctx) and looks again, claiming the next
// one itself if that one froze too early or failed.
func (r *Reasoner) viewAtLeast(ctx context.Context, need uint64) (*View, error) {
	for {
		r.viewMu.Lock()
		cur, flight := r.viewCur, r.viewFlight
		if cur != nil && cur.sv.Version() >= need &&
			(cur.sv.Version() == r.store.Version() || time.Since(cur.born) < r.viewMaxAge || flight != nil) {
			r.viewMu.Unlock()
			return &View{r: r, shared: cur}, nil
		}
		if flight == nil {
			r.viewFlight = make(chan struct{})
			r.viewMu.Unlock()
			// The claimant's snapshot is frozen after its call began, so
			// it is past need by construction.
			return r.refreshView(ctx)
		}
		r.viewMu.Unlock()
		select {
		case <-flight:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// refreshView runs the refresh its caller claimed (viewFlight): it
// quiesces the engine, freezes a fresh snapshot and installs it as the
// shared current one, returning a session on it. However it ends —
// installed, failed or panicking — the flight is cleared and closed
// last, so joiners look again (at the new snapshot, if there is one)
// and a failure cannot freeze the served snapshot.
func (r *Reasoner) refreshView(ctx context.Context) (*View, error) {
	defer func() {
		r.viewMu.Lock()
		flight := r.viewFlight
		r.viewFlight = nil
		r.viewMu.Unlock()
		close(flight)
	}()
	t0 := obs.NowIfEnabled()
	// The refresh span lands in the trace of whichever flight paid for
	// the capture (typically a query request's) — the quiesce-and-freeze
	// is the serving layer's main tail-latency source.
	_, sp := trace.Start(ctx, "view.refresh")
	sv, err := r.freezeClosure(ctx)
	if err != nil {
		sp.Error(err.Error())
		sp.End()
		return nil, err
	}
	version := sv.Version()
	sp.SetInt("version", int64(version))
	sp.End()
	r.obs.viewRefresh.ObserveSince(t0)
	ns := &sharedView{sv: sv, born: time.Now()}
	r.viewMu.Lock()
	r.viewCur = ns
	r.viewMu.Unlock()
	// Batches at or before this version are now visible to read
	// sessions: settle their pending view-visibility spans.
	r.lc.notifyView(version)
	return &View{r: r, shared: ns}, nil
}

// freezeClosure quiesces inference and captures a view of the
// materialised store — the closure of every batch acknowledged before
// the freeze, stamped with the store version it holds (View.Version),
// which also says which of its triples are explicit. The exclusive
// window is O(1) beyond the quiescence drain; a pre-drain without the
// lock bounds what the locked drain still has to absorb (under
// sustained ingest the engine is never spontaneously quiescent, and
// only the locked drain, with writers excluded, is guaranteed to
// terminate). Shared lock choreography for read-session refresh and the
// retraction pass's frozen phase A.
func (r *Reasoner) freezeClosure(ctx context.Context) (*store.View, error) {
	predrain, cancel := context.WithTimeout(ctx, time.Second)
	r.engine.Wait(predrain)
	cancel()
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if err := r.engine.Wait(ctx); err != nil {
		return nil, err
	}
	return r.store.Freeze(), nil
}

// Close ends the session. It is a no-op, kept for callers that scope
// sessions explicitly: a session holds no lock and no count, and its
// snapshot is collected once unreachable.
func (v *View) Close() {}

// Len returns the number of triples (explicit plus inferred) in the
// snapshot.
func (v *View) Len() int { return v.shared.sv.Len() }

// Contains reports whether the statement was present in the snapshot.
func (v *View) Contains(st Statement) bool {
	t, ok := v.r.lookup(st)
	if !ok {
		return false
	}
	return v.shared.sv.Contains(t)
}

// Select runs a SPARQL-like SELECT query (see Reasoner.Select) against
// the snapshot, in deterministic sorted order.
func (v *View) Select(text string) ([]Binding, error) {
	q, err := query.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	return v.SelectQuery(q)
}

// SelectQuery runs an already-built query against the snapshot.
func (v *View) SelectQuery(q query.Query) ([]Binding, error) {
	return query.Execute(context.Background(), v.shared.sv, v.r.dict, q, v.r.obs.query, nil)
}

// SelectFunc parses and runs a SELECT query against the snapshot,
// streaming each distinct solution to emit as it is found (unspecified
// order) and stopping early when emit returns false or the query's
// LIMIT is reached — the result set is never materialised. This is the
// executor behind the HTTP API's streamed bindings.
func (v *View) SelectFunc(text string, emit func(Binding) bool) error {
	q, err := query.ParseSelect(text)
	if err != nil {
		return err
	}
	return v.SelectQueryFunc(q, emit)
}

// SelectQueryFunc is SelectFunc for an already-built query.
func (v *View) SelectQueryFunc(q query.Query, emit func(Binding) bool) error {
	return v.SelectQueryFuncExplain(context.Background(), q, nil, emit)
}

// SelectQueryFuncExplain is SelectQueryFunc carrying trace context
// (the planner and executor record spans into it) and, when ex is
// non-nil, filling it with the execution profile. The serving layer's
// ?explain=1 is built on it.
func (v *View) SelectQueryFuncExplain(ctx context.Context, q query.Query, ex *query.Explain, emit func(Binding) bool) error {
	return query.ExecuteFunc(ctx, v.shared.sv, v.r.dict, q, v.r.obs.query, ex, emit)
}
