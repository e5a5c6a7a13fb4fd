// Batch lifecycle attribution: the part of a batch's flight that
// happens *after* AddBatch returns. Acknowledgement only means the
// batch is logged and routed — inference rounds are still running, and
// readers will not see the triples until a view at or past the batch's
// store version is installed. The lifecycle watcher pins both tails to
// the batch's trace as asynchronous child spans:
//
//	infer.rounds — batch acknowledgement to the next engine quiescence
//	view.visible — batch acknowledgement to the first read-session view
//	               that includes the batch's explicit triples
//
// Quiescence is global (the engine drains as a whole), so infer.rounds
// measures "by when had this batch's consequences certainly landed",
// not the batch's private inference cost — under concurrent ingest the
// drain the batch joins covers later batches too. That is the number
// view staleness is made of, which is what the trace is for.
//
// Both tails end on events, not polls: refreshView settles view.visible
// at the install (notifyView), and a single lazily-started watcher
// goroutine parks on the engine's quiescence wake-up (Engine.Quiesced)
// to settle infer.rounds, holding one timer — the oldest tail's
// deadline. Inert unless tracing produced spans to track.
package slider

import (
	"context"
	"sync"
	"time"

	"repro/internal/trace"
)

// lifecycleSlack bounds how long a flight's tail spans stay open when
// quiescence or visibility is never observed (no queries arrive, so no
// view is ever refreshed): the spans end with an "outcome" attribute
// instead of dangling and holding their trace open forever.
const lifecycleSlack = 2 * time.Second

// flightTail is one tracked batch: its two open tail spans and the
// store version whose visibility settles the second.
type flightTail struct {
	infer    *trace.Span
	vis      *trace.Span
	version  uint64
	deadline time.Time
}

// lifecycle owns the pending flight tails and the watcher goroutine.
type lifecycle struct {
	r *Reasoner

	mu      sync.Mutex
	pending []*flightTail // in tracking order, so in deadline order
	running bool
	closed  bool
	// rewait cancels the watcher's current wait so it looks at pending
	// again; inferring says that wait is on the engine too (else only
	// on the head deadline, and a new tail must interrupt it).
	rewait    context.CancelFunc
	inferring bool
}

// track registers a just-acknowledged batch's asynchronous tail under
// its span. Called from the ingest path only when the batch is traced.
func (lc *lifecycle) track(parent *trace.Span, version uint64) {
	deadline := time.Now().Add(lifecycleSlack + lc.r.viewMaxAge)
	ft := &flightTail{
		infer:    parent.Child("infer.rounds"),
		vis:      parent.Child("view.visible"),
		version:  version,
		deadline: deadline,
	}
	ft.vis.SetInt("version", int64(version))
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed {
		ft.settle("shutdown")
		return
	}
	lc.pending = append(lc.pending, ft)
	if !lc.running {
		lc.running, lc.inferring = true, true
		go lc.watch()
	} else if !lc.inferring {
		lc.inferring = true
		lc.rewait()
	}
}

// sweep applies f to every pending tail and drops those it settled.
// Callers hold mu.
func (lc *lifecycle) sweep(f func(*flightTail)) {
	keep := lc.pending[:0]
	for _, ft := range lc.pending {
		f(ft)
		if ft.infer != nil || ft.vis != nil {
			keep = append(keep, ft)
		}
	}
	clear(lc.pending[len(keep):]) // do not pin settled tails
	lc.pending = keep
}

// notifyView settles view-visibility spans for batches at or before
// the just-installed view's version. Called by refreshView after the
// install, with no reasoner locks held, so the precise install moment
// is what the spans record. Nothing else has to watch for visibility:
// track runs under the writer lock, as every freeze does, so every
// freeze that includes the batch comes after its tail is registered.
func (lc *lifecycle) notifyView(version uint64) {
	if !trace.Enabled() {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.sweep(func(ft *flightTail) {
		if ft.vis != nil && version >= ft.version {
			ft.vis.End()
			ft.vis = nil
		}
	})
}

// watch settles infer.rounds at each engine quiescence and times out
// tails past their deadline, until none remain; track restarts it for
// the next traced batch.
func (lc *lifecycle) watch() {
	for {
		lc.mu.Lock()
		now := time.Now()
		lc.sweep(func(ft *flightTail) {
			if now.After(ft.deadline) {
				ft.settle("timeout")
			}
		})
		n := len(lc.pending)
		if n == 0 {
			lc.running = false
			lc.mu.Unlock()
			return
		}
		// Quiescence ends every open infer span, so those still open are
		// a suffix; last was acknowledged before the wait begins, so a
		// quiescence the wait observes comes after its routing.
		last := lc.pending[n-1]
		inferring := last.infer != nil
		ctx, cancel := context.WithDeadline(context.Background(), lc.pending[0].deadline)
		lc.inferring, lc.rewait = inferring, cancel
		lc.mu.Unlock()
		if !inferring {
			<-ctx.Done()
		} else if lc.r.engine.Quiesced(ctx) == nil {
			lc.mu.Lock()
			open := true
			lc.sweep(func(ft *flightTail) {
				if open && ft.infer != nil {
					ft.infer.End()
					ft.infer = nil
				}
				open = open && ft != last
			})
			lc.mu.Unlock()
		}
		cancel()
	}
}

// close force-settles every pending tail (outcome "shutdown") so
// traces complete and the watcher exits. Reasoner.Close calls it
// before tearing the engine down.
func (lc *lifecycle) close() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.closed = true
	lc.sweep(func(ft *flightTail) { ft.settle("shutdown") })
	if lc.rewait != nil {
		lc.rewait()
	}
}

// settle ends the tail's open spans with an outcome attribute — used
// when the watcher gives up rather than observes the real event.
func (ft *flightTail) settle(outcome string) {
	for _, sp := range []*trace.Span{ft.infer, ft.vis} {
		if sp != nil {
			sp.SetStr("outcome", outcome)
			sp.End()
		}
	}
	ft.infer, ft.vis = nil, nil
}
