// Durable knowledge bases. A durable Reasoner pairs the in-memory
// engine with a write-ahead log (internal/wal): every acknowledged
// assert/retract batch is logged — together with the dictionary entries
// that name it — before the engine applies it, and the materialised
// store is checkpointed (internal/snapshot format) in the background.
//
// Reopening the directory restores the checkpointed closure instantly
// and re-runs inference only over the logged tail, so a crash loses at
// most the batch whose Add never returned. Retractions are logged too:
// replay re-runs delete-and-rederive, so the recovered closure is the
// closure of the surviving explicit triples — exactly the state a
// process that never crashed would hold.
package slider

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/maintenance"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// DefaultCheckpointEvery is how much live (uncheckpointed) write-ahead
// log a durable reasoner accumulates before a background checkpoint.
const DefaultCheckpointEvery = 4 << 20

// Open opens (creating if necessary) a durable knowledge base rooted at
// dir and returns a Reasoner for the fragment. If the directory holds a
// previous run's state, the checkpoint is loaded as background knowledge
// and the log tail is replayed — inference re-runs only for the
// uncheckpointed suffix. A torn final record (crash mid-append) is
// truncated away. The fragment should match the one the directory was
// written with: the checkpoint stores the materialised closure, which a
// weaker fragment would not re-derive.
func Open(dir string, frag Fragment, opts ...Option) (*Reasoner, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	cfg.durableDir = dir
	return openDurable(frag, cfg)
}

// durability is the write-ahead-log state of a durable Reasoner.
type durability struct {
	log             *wal.Log
	checkpointEvery int64 // <0: never checkpoint automatically
	fs              vfs.FS
	dir             string
	logger          *slog.Logger
	diskMinFree     int64 // read-only floor in free bytes; 0 disables

	// health is the degradation state machine (see degraded.go): which
	// faults refuse writes, and the recovery loop's progress.
	health healthState
	// stopMon, closed by closeDurable, stops the recovery loop and the
	// disk-watermark monitor.
	stopMon chan struct{}

	// errMu guards the fields below on their own so read-only paths
	// (Wait, Err) never block behind a writer holding Reasoner.writeMu.
	errMu sync.Mutex
	err   error // terminal close-path failure; poisons further writes
	// bgErr is the latest background-checkpoint failure — the serving
	// layer reports it as "degraded" while writes still work; cleared
	// when a checkpoint succeeds or recovery completes.
	bgErr error
	// ckptFailures counts consecutive background-checkpoint failures;
	// ckptNextTry is when the next attempt may run (capped exponential
	// backoff, see ckptFault). Past ckptMaxRetries the reasoner degrades.
	ckptFailures int
	ckptNextTry  time.Time

	// Dictionary high-water marks: how many terms per kind have been
	// written to the log (or were present in the loaded checkpoint).
	hwIRIs, hwBlanks, hwLiterals int

	// ckptDone is non-nil exactly while a checkpoint is in flight
	// (marking or streaming) and is closed when it ends; it is THE
	// in-flight indicator, reset to nil on completion so stale channels
	// never leak into later bookkeeping. Guarded by Reasoner.writeMu,
	// which also excludes writers while a checkpoint *marks* its cut of
	// the store; the O(store) stream phase runs without it, so writers
	// never wait on checkpoint I/O.
	ckptDone chan struct{}
	// closeAbandoned is set when Close gave up waiting for an in-flight
	// checkpoint: ownership of the log (and the directory lock) passes
	// to the checkpoint goroutine, which closes it when it finishes.
	// Guarded by Reasoner.writeMu.
	closeAbandoned bool
}

// openDurable builds a durable Reasoner from an option-parsed config.
func openDurable(frag Fragment, cfg config) (*Reasoner, error) {
	// The registry outlives any single subsystem, so create it first:
	// the log registers its instruments here, newReasoner threads the
	// same registry through the store, engine bridges and facade.
	reg := obs.NewRegistry()
	cfg.reg = reg
	fs := cfg.fs
	if fs == nil {
		fs = vfs.OS
	}
	l, err := wal.Open(cfg.durableDir, wal.Options{
		SegmentSize: cfg.walSegmentSize,
		Fsync:       cfg.walFsync,
		Metrics:     wal.NewMetrics(reg),
		FS:          fs,
	})
	if err != nil {
		return nil, err
	}
	reg.GaugeFunc("slider_wal_live_bytes",
		"Write-ahead-log bytes not yet covered by a checkpoint.",
		func() float64 { return float64(l.LiveBytes()) })
	reg.GaugeFunc("slider_wal_checkpoint_bytes",
		"Size of the current checkpoint's payload files.",
		func() float64 { return float64(l.CheckpointBytes()) })
	reg.GaugeFunc("slider_disk_free_bytes",
		"Free bytes on the filesystem holding the knowledge base (-1 when unknown).",
		func() float64 {
			free, err := fs.FreeSpace(cfg.durableDir)
			if err != nil {
				return -1
			}
			return float64(free)
		})
	// A checkpoint stores a materialised closure: reopening under
	// different rules would silently mix fragments and re-persist the
	// hybrid. Record the fragment on first open, refuse mismatches.
	switch recorded := l.Meta(); recorded {
	case "":
		if err := l.SetMeta(frag.Name()); err != nil {
			l.Close()
			return nil, err
		}
	case frag.Name():
	default:
		l.Close()
		return nil, fmt.Errorf("slider: knowledge base at %s was built with fragment %q, not %q",
			cfg.durableDir, recorded, frag.Name())
	}
	dict := rdf.NewDictionary()
	st := store.New()
	snapRC, hasCkpt, err := l.OpenCheckpoint()
	if err != nil {
		l.Close()
		return nil, err
	}
	if hasCkpt {
		dict, st, err = snapshot.Load(snapRC)
		snapRC.Close()
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("slider: loading checkpoint: %w", err)
		}
	}
	r := newReasoner(frag, dict, st, cfg)
	if err := r.replayLog(l); err != nil {
		r.engine.Close(context.Background())
		l.Close()
		return nil, err
	}
	every := cfg.checkpointEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	logger := cfg.logger
	if logger == nil {
		logger = slog.Default()
	}
	d := &durability{
		log:             l,
		checkpointEvery: every,
		fs:              fs,
		dir:             cfg.durableDir,
		logger:          logger,
		diskMinFree:     cfg.diskMinFree,
		stopMon:         make(chan struct{}),
	}
	d.hwIRIs, d.hwBlanks, d.hwLiterals = dict.KindCounts()
	if d.diskMinFree > 0 {
		go d.monitorDisk()
	}
	r.dur = d
	return r, nil
}

// replayLog re-applies the live log tail: dictionary deltas are
// re-encoded (and verified against the IDs the log recorded), assert
// batches re-enter the engine so their consequences are re-inferred
// against the checkpointed background, and retract batches re-run
// delete-and-rederive. Runs before r.dur is armed, so nothing is
// re-logged.
func (r *Reasoner) replayLog(l *wal.Log) error {
	ctx := context.Background()
	_, err := l.Replay(func(rec wal.Record) error {
		if err := rec.RegisterTerms(r.dict); err != nil {
			return fmt.Errorf("slider: wal replay: %w", err)
		}
		switch rec.Op {
		case wal.OpAssert:
			r.applyAssert([]*pendingBatch{{ctx: ctx, ts: rec.Triples}})
		case wal.OpRetract:
			// DRed needs a quiescent store, as in Retract.
			if err := r.engine.Wait(ctx); err != nil {
				return err
			}
			if _, err := maintenance.Retract(ctx, r.store, r.frag.rules, rec.Triples); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// termDelta collects the dictionary terms registered since the previous
// call, advancing the high-water marks. Called with writeMu held, so deltas
// land in the log in registration order and replay reproduces identical
// IDs. A term encoded by a not-yet-logged concurrent batch may ride
// along with an earlier record — harmless, replay just registers it
// sooner.
func (d *durability) termDelta(dict *rdf.Dictionary) []wal.TermEntry {
	iris, blanks, literals := dict.KindCounts()
	if iris == d.hwIRIs && blanks == d.hwBlanks && literals == d.hwLiterals {
		return nil
	}
	delta := make([]wal.TermEntry, 0,
		(iris-d.hwIRIs)+(blanks-d.hwBlanks)+(literals-d.hwLiterals))
	dict.ForEachNew(d.hwIRIs, d.hwBlanks, d.hwLiterals, func(id rdf.ID, t rdf.Term) bool {
		delta = append(delta, wal.TermEntry{ID: id, Term: t})
		switch t.Kind {
		case rdf.TermIRI:
			d.hwIRIs++
		case rdf.TermBlank:
			d.hwBlanks++
		case rdf.TermLiteral:
			d.hwLiterals++
		}
		return true
	})
	return delta
}

// termMarks snapshots the term high-water marks before an append;
// rewindTerms restores them when that append is rejected. The rejected
// record's term delta was never logged (the log backs the frame out),
// so those definitions must ride along with the next successful record
// — leaving the marks advanced would make replay meet triple IDs whose
// terms are in no record. Both called with writeMu held.
func (d *durability) termMarks() (iris, blanks, literals int) {
	return d.hwIRIs, d.hwBlanks, d.hwLiterals
}

func (d *durability) rewindTerms(iris, blanks, literals int) {
	d.hwIRIs, d.hwBlanks, d.hwLiterals = iris, blanks, literals
}

// ckptCapture is the output of a checkpoint's mark phase: a consistent
// copy-on-write cut of the knowledge base at a write-ahead-log position.
// The views stay valid — and keep answering with the freeze-time state —
// while ingest continues; the stream phase serialises them to disk with
// no lock held.
type ckptCapture struct {
	mark  wal.CheckpointMark
	store *store.View
	dict  *rdf.DictView
}

// Checkpoint writes the materialised store, which marks its explicit
// triples, and the dictionary to the knowledge base's directory, then
// prunes the log segments the checkpoint covers. Recovery after a
// checkpoint loads it instantly instead of replaying the log.
//
// The capture is two-phase: a brief mark (drain inference, seal the log
// segment, freeze copy-on-write views — writers pause O(1), not
// O(store)) followed by a lock-free stream of the frozen views to disk
// while ingest continues. If a background checkpoint is already in
// flight, Checkpoint waits for it (bounded by ctx) and then takes its
// own. Errors only on durable reasoners' I/O failures; calling it on an
// in-memory reasoner errors.
func (r *Reasoner) Checkpoint(ctx context.Context) error {
	if r.dur == nil {
		return fmt.Errorf("slider: Checkpoint on a non-durable reasoner (use Open or WithDurability)")
	}
	d := r.dur
	for {
		r.writeMu.Lock()
		done := d.ckptDone
		if done == nil {
			break
		}
		r.writeMu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// writeMu held, no checkpoint in flight: arm one and run it here.
	done := make(chan struct{})
	d.ckptDone = done
	r.writeMu.Unlock()
	return r.runCheckpoint(ctx, done)
}

// markCheckpointLocked is the mark phase, with writeMu held: drain
// inference (the store is then exactly the closure of every logged
// record), seal the live log segment, and freeze copy-on-write views of
// the store and the logged dictionary prefix. O(1) work beyond the
// quiescence wait — the pause writers can observe.
func (r *Reasoner) markCheckpointLocked(ctx context.Context) (*ckptCapture, error) {
	d := r.dur
	t0 := obs.NowIfEnabled()
	if err := d.getErr(); err != nil {
		return nil, err
	}
	if err := r.engine.Wait(ctx); err != nil {
		return nil, err
	}
	if err := r.engine.Err(); err != nil {
		return nil, err
	}
	mark, err := d.log.BeginCheckpoint()
	if err != nil {
		d.ckptFault(err)
		return nil, err
	}
	defer r.obs.ckptMark.ObserveSince(t0)
	// The dictionary view ends at the logged high-water marks: exactly
	// the terms the covered records (and hence the frozen store, whose
	// triples are their closure) can reference. Terms registered later
	// ride along with the post-mark record that first logs them.
	return &ckptCapture{
		mark:  mark,
		store: r.store.Freeze(),
		dict:  r.dict.ViewAt(d.hwIRIs, d.hwBlanks, d.hwLiterals),
	}, nil
}

// streamCheckpoint is the stream phase: serialise the capture's frozen
// views to the checkpoint file and commit the manifest, all without
// writeMu — ingest, retraction and queries proceed concurrently, appending
// runs the frozen views do not hold. Failures poison the reasoner
// (surfaced via Err).
func (r *Reasoner) streamCheckpoint(cap *ckptCapture) error {
	d := r.dur
	t0 := obs.NowIfEnabled()
	err := d.log.WriteCheckpointPayload(cap.mark,
		func(w io.Writer) error { return snapshot.SaveFrom(w, cap.dict, cap.store) })
	if err == nil {
		r.obs.ckptStream.ObserveSince(t0)
		c0 := obs.NowIfEnabled()
		err = d.log.CommitCheckpoint(cap.mark)
		if err == nil {
			r.obs.ckptCommit.ObserveSince(c0)
			r.obs.ckptTotal.Inc()
		}
	} else {
		d.log.AbortCheckpoint(cap.mark)
	}
	if err != nil {
		d.ckptFault(err)
	} else {
		d.ckptSucceeded()
	}
	return err
}

// runCheckpoint executes one armed checkpoint end to end: mark under
// writeMu, stream lock-free, then clear the in-flight marker — and, if a
// Close abandoned the reasoner mid-checkpoint, close the log on its
// behalf so the segment descriptor and directory lock are not leaked.
// done must be the channel installed as d.ckptDone.
func (r *Reasoner) runCheckpoint(ctx context.Context, done chan struct{}) error {
	d := r.dur
	// Pre-drain outside the lock, bounded so sustained ingest cannot
	// stall the checkpoint forever: the quiescence wait inside the mark
	// (which *does* block writers) then covers only the inference that
	// arrived during the gap, not the whole backlog.
	predrain, cancel := context.WithTimeout(ctx, 10*time.Second)
	r.engine.Wait(predrain)
	cancel()
	r.writeMu.Lock()
	cap, err := r.markCheckpointLocked(ctx)
	r.writeMu.Unlock()
	if err == nil {
		err = r.streamCheckpoint(cap)
	}
	r.writeMu.Lock()
	d.ckptDone = nil
	abandoned := d.closeAbandoned
	r.writeMu.Unlock()
	if abandoned {
		if cerr := d.log.Close(); cerr != nil {
			d.setErr(cerr)
		}
	}
	close(done)
	return err
}

// maybeCheckpointLocked starts a background checkpoint when the live log
// volume passes the threshold. Called with writeMu held; the checkpoint
// goroutine re-acquires writeMu only for its brief mark phase, so the
// triggering Add returns first and subsequent writers pause for O(1),
// not for the O(store) snapshot write.
func (r *Reasoner) maybeCheckpointLocked() {
	d := r.dur
	if d.checkpointEvery <= 0 || d.ckptDone != nil || d.getErr() != nil {
		return
	}
	// Back off after failures: retrying every append would hammer a
	// faulting disk; past the retry budget ckptFault degraded us and the
	// getErr gate above already refused.
	d.errMu.Lock()
	retrying := d.ckptFailures > 0
	next := d.ckptNextTry
	d.errMu.Unlock()
	if retrying && time.Now().Before(next) {
		return
	}
	// The threshold is a floor: once the store outgrows it, wait for the
	// live log to reach half the last checkpoint's size before paying
	// for the next full rewrite. This keeps total checkpoint I/O linear
	// in the data ingested instead of quadratic in store size.
	threshold := d.checkpointEvery
	if half := d.log.CheckpointBytes() / 2; half > threshold {
		threshold = half
	}
	if d.log.LiveBytes() < threshold {
		return
	}
	done := make(chan struct{})
	d.ckptDone = done
	go r.runCheckpoint(context.Background(), done)
}

// getErr returns the error writes are currently refused with, if any:
// a terminal close-path error, or the degradation state machine's cause
// while the reasoner is degraded or failed (see degraded.go). Callers
// that were refused see the exact instance Err() reports.
func (d *durability) getErr() error {
	d.errMu.Lock()
	err := d.err
	d.errMu.Unlock()
	if err != nil {
		return err
	}
	return d.refusal()
}

// setErr records a terminal durability failure (close-path only; the
// write path classifies faults through writeFault instead).
func (d *durability) setErr(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

// getBgErr returns the pending checkpoint failure, if any (cleared when
// a later checkpoint succeeds or recovery completes).
func (d *durability) getBgErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.bgErr
}

// durErr returns the sticky durability error, if any.
func (r *Reasoner) durErr() error {
	if r.dur == nil {
		return nil
	}
	return r.dur.getErr()
}

// closeDurable shuts a durable reasoner down cleanly: drain inference,
// take a final checkpoint (so the next Open skips replay), close the
// log.
func (r *Reasoner) closeDurable(ctx context.Context) error {
	d := r.dur
	// Stop the recovery loop and the disk monitor first: a probe racing
	// the close-time checkpoint below would fight over the live segment.
	d.health.mu.Lock()
	select {
	case <-d.stopMon:
	default:
		close(d.stopMon)
	}
	d.health.mu.Unlock()
	// Let an in-flight background checkpoint finish first, but respect
	// the caller's shutdown deadline: the checkpoint write is O(store)
	// and not cancellable. On timeout the KB is left un-closed and
	// ownership of the log passes to the checkpoint goroutine, which
	// closes it — releasing the segment descriptor and the directory
	// lock — as soon as it finishes, so a same-process reopen is not
	// wedged forever. The log on disk stays consistent either way and
	// the next Open recovers normally.
	for {
		r.writeMu.Lock()
		done := d.ckptDone
		if done == nil {
			break
		}
		r.writeMu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			r.writeMu.Lock()
			if d.ckptDone != nil {
				d.closeAbandoned = true
				r.writeMu.Unlock()
				return ctx.Err()
			}
			// The checkpoint ended between the deadline firing and the
			// re-lock: fall through and close normally (the expired ctx
			// will surface from engine.Close below).
			r.writeMu.Unlock()
		}
	}
	// writeMu held; no checkpoint in flight, and none can start (arming
	// happens under writeMu).
	defer r.writeMu.Unlock()
	err := r.engine.Close(ctx)
	if err == nil {
		err = r.engine.Err()
	}
	// Checkpoint only if the log holds records the current checkpoint
	// does not cover: a read-only session (or one whose background
	// checkpoint just ran) would otherwise rewrite the whole store on
	// every exit. The two-phase capture runs inline here — writeMu stays
	// held, which is fine: the engine is closed, nothing writes. A
	// retried Close after an abandoned one skips it: the checkpoint
	// goroutine already closed the log on our behalf, and attempting a
	// capture against it would poison the reasoner with a spurious
	// ErrClosed — any post-mark tail simply replays on the next Open.
	if err == nil && d.getErr() == nil && !d.closeAbandoned && d.checkpointEvery >= 0 && d.log.Dirty() {
		cap, cerr := r.markCheckpointLocked(ctx)
		if cerr == nil {
			cerr = r.streamCheckpoint(cap)
		}
		err = cerr
	}
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = d.getErr()
	}
	return err
}
