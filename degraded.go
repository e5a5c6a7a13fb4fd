// Degraded operation. A durable Reasoner that hits a disk fault does
// not die and does not poison itself forever: it classifies the fault
// and, for the transient kinds (ENOSPC, EIO on an fsync, a failed
// rename or segment roll), enters a read-only degraded mode — queries,
// stats and metrics keep serving, writes are refused with ErrDegraded —
// while a background loop probes the log directory with bounded
// exponential backoff and returns the reasoner to ok once writes
// durably succeed again. Only corruption (wal.ErrCorrupt) is permanent:
// it moves the reasoner to failed, from which there is no way back.
//
// State machine (see README "Failure modes & degraded operation"):
//
//	ok ──transient fault──▶ degraded ──probe succeeds──▶ ok
//	ok/degraded ──corruption──▶ failed          (terminal)
//
// Record rejections (wal.ErrRejected: oversized or wildcard-carrying
// batches) are the caller's problem, say nothing about the disk, and
// cause no transition.
package slider

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/wal"
)

// HealthStatus is the coarse health of a Reasoner.
type HealthStatus string

const (
	// HealthOK: fully serving, writes accepted.
	HealthOK HealthStatus = "ok"
	// HealthDegraded: serving reads; writes may be refused (ReadOnly)
	// or background maintenance may be behind. Recovery is possible.
	HealthDegraded HealthStatus = "degraded"
	// HealthFailed: a permanent fault (corruption, engine failure).
	HealthFailed HealthStatus = "failed"
)

// Health is a point-in-time health snapshot (see Reasoner.Health).
type Health struct {
	Status HealthStatus
	// Cause is the human-readable reason when Status != ok.
	Cause string
	// Since is when the current status was entered (zero for ok since
	// startup, or when the origin subsystem does not track it).
	Since time.Time
	// RetryAfter is the recovery loop's current backoff — the hint a
	// serving layer should hand to clients as a Retry-After. Zero when
	// writes are not being refused.
	RetryAfter time.Duration
	// ReadOnly reports whether mutations are currently refused. A
	// degraded reasoner with ReadOnly false (e.g. a compaction panic)
	// still accepts writes.
	ReadOnly bool
}

// ErrDegraded marks writes refused while the reasoner is in read-only
// degraded mode. Errors returned by AddBatch/Retract during degradation
// match errors.Is(err, ErrDegraded); the serving layer maps them to 503
// with a Retry-After.
var ErrDegraded = errors.New("slider: knowledge base degraded (read-only)")

const (
	// recoverBackoffMin/Max bound the recovery loop's exponential
	// backoff between probes of the log directory.
	recoverBackoffMin = 50 * time.Millisecond
	recoverBackoffMax = 5 * time.Second
	// ckptMaxRetries is how many consecutive background-checkpoint
	// failures are retried (with backoff, see ckptRetryBase) before the
	// reasoner degrades to read-only.
	ckptMaxRetries = 6
	ckptRetryBase  = 10 * time.Millisecond
	ckptRetryMax   = 500 * time.Millisecond
	// diskPollEvery is the disk-watermark monitor's sampling period.
	diskPollEvery = 2 * time.Second
)

// healthState is the durability layer's half of the state machine,
// guarded by its own mutex so health reads never wait on ingest.
type healthState struct {
	mu         sync.Mutex
	status     HealthStatus
	cause      error // the stored instance writes are refused with
	since      time.Time
	backoff    time.Duration // current recovery backoff (degraded only)
	attempts   int           // probes since entering degraded
	recovering bool          // a recoverLoop goroutine is live
}

// healthSnapshot reports the durability layer's own health. The facade
// (Reasoner.Health) merges it with engine and compaction state.
func (d *durability) healthSnapshot() Health {
	h := &d.health
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.status
	if st == "" {
		st = HealthOK
	}
	out := Health{Status: st, Since: h.since}
	if h.cause != nil {
		out.Cause = h.cause.Error()
	}
	if st == HealthDegraded {
		out.ReadOnly = true
		out.RetryAfter = h.backoff
		if out.RetryAfter < recoverBackoffMin {
			out.RetryAfter = recoverBackoffMin
		}
	}
	if st == HealthFailed {
		out.ReadOnly = true
	}
	return out
}

// refusal returns the error writes are currently refused with, nil when
// the durability layer is healthy.
func (d *durability) refusal() error {
	h := &d.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.status == HealthDegraded || h.status == HealthFailed {
		return h.cause
	}
	return nil
}

// writeFault classifies a write-path failure and returns the error the
// caller should surface. Rejections (invalid records) and ErrClosed
// pass through untouched — they say nothing about the disk. Corruption
// is terminal. Everything else (ENOSPC, EIO, rename/roll failures) is
// transient: the reasoner degrades to read-only and a recovery loop
// starts probing. The returned error is the stored cause instance, so
// the refusal a concurrent writer sees is identical to Err()'s.
func (d *durability) writeFault(err error) error {
	switch {
	case errors.Is(err, wal.ErrRejected), errors.Is(err, wal.ErrClosed):
		return err
	case errors.Is(err, wal.ErrCorrupt):
		return d.enterFailed(err)
	default:
		return d.enterDegraded(err)
	}
}

// enterDegraded moves ok → degraded (idempotent while degraded; a no-op
// once failed) and starts the recovery loop. Returns the stored cause.
func (d *durability) enterDegraded(err error) error {
	h := &d.health
	h.mu.Lock()
	if h.status == HealthFailed {
		defer h.mu.Unlock()
		return h.cause
	}
	if h.status != HealthDegraded {
		assertHealthTransition(h.status, HealthDegraded)
		h.status = HealthDegraded
		h.cause = fmt.Errorf("%w: %v", ErrDegraded, err)
		h.since = time.Now()
		h.backoff = recoverBackoffMin
		h.attempts = 0
		d.logger.Warn("entering degraded read-only mode", "cause", err)
	}
	cause := h.cause
	spawn := !h.recovering
	if spawn {
		h.recovering = true
	}
	h.mu.Unlock()
	if spawn {
		go d.recoverLoop()
	}
	return cause
}

// enterFailed moves the durability layer to its terminal state.
func (d *durability) enterFailed(err error) error {
	h := &d.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.status == HealthFailed {
		return h.cause
	}
	h.status = HealthFailed
	h.cause = err
	h.since = time.Now()
	d.logger.Error("knowledge base failed permanently", "cause", err)
	return h.cause
}

// recovered moves degraded → ok: clear the cause, reset the checkpoint
// retry budget, and drop the sticky background error so health reports
// clean. Never called from failed.
func (d *durability) recovered() {
	h := &d.health
	h.mu.Lock()
	if h.status != HealthDegraded {
		h.mu.Unlock()
		return
	}
	assertHealthTransition(h.status, HealthOK)
	h.status = HealthOK
	h.cause = nil
	h.since = time.Now()
	h.backoff = 0
	h.recovering = false
	attempts := h.attempts
	h.mu.Unlock()
	d.errMu.Lock()
	d.bgErr = nil
	d.ckptFailures = 0
	d.errMu.Unlock()
	d.logger.Info("recovered from degraded mode, accepting writes again", "probes", attempts)
}

// recoverLoop probes the log directory with bounded exponential backoff
// plus jitter until a probe succeeds (→ ok) or the reasoner closes. It
// never re-fsyncs the failed descriptor: wal.Recover reopens the live
// segment by path (INVARIANTS: recovery never re-fsyncs a failed fd).
func (d *durability) recoverLoop() {
	backoff := recoverBackoffMin
	for {
		// Full jitter on the upper half keeps a fleet of recovering
		// processes from thundering against a shared disk.
		wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		t := time.NewTimer(wait)
		select {
		case <-d.stopMon:
			t.Stop()
			d.health.mu.Lock()
			d.health.recovering = false
			d.health.mu.Unlock()
			return
		case <-t.C:
		}
		if err := d.probe(); err == nil {
			d.recovered()
			return
		} else {
			d.logger.Warn("recovery probe failed", "err", err, "next_backoff", backoff)
		}
		d.health.mu.Lock()
		d.health.attempts++
		if backoff *= 2; backoff > recoverBackoffMax {
			backoff = recoverBackoffMax
		}
		d.health.backoff = backoff
		d.health.mu.Unlock()
	}
}

// probe checks that the log directory is writable again: free space is
// back above the configured floor (when one is set), and the log can
// reopen its live segment and complete a write+fsync+remove round trip.
func (d *durability) probe() error {
	if d.diskMinFree > 0 {
		free, err := d.fs.FreeSpace(d.dir)
		if err == nil && free < uint64(d.diskMinFree) {
			return fmt.Errorf("slider: disk free %d bytes still below the %d-byte floor", free, d.diskMinFree)
		}
	}
	return d.log.Recover()
}

// ckptFault records a background-checkpoint failure: retried with
// capped exponential backoff (maybeCheckpointLocked skips attempts
// inside the window), degrading to read-only once the budget is spent.
// wal.ErrClosed is shutdown noise, not a fault.
func (d *durability) ckptFault(err error) {
	if errors.Is(err, wal.ErrClosed) {
		return
	}
	d.errMu.Lock()
	if d.bgErr == nil {
		d.bgErr = err
	}
	d.ckptFailures++
	n := d.ckptFailures
	backoff := ckptRetryBase << (n - 1)
	if backoff > ckptRetryMax || backoff <= 0 {
		backoff = ckptRetryMax
	}
	d.ckptNextTry = time.Now().Add(backoff)
	d.errMu.Unlock()
	if n > ckptMaxRetries {
		d.enterDegraded(fmt.Errorf("checkpoint failed %d times, last: %v", n, err))
		return
	}
	d.logger.Warn("background checkpoint failed, will retry", "attempt", n, "backoff", backoff, "err", err)
}

// ckptSucceeded clears the checkpoint retry budget and the sticky
// background error: the disk proved writable end to end.
func (d *durability) ckptSucceeded() {
	d.errMu.Lock()
	d.bgErr = nil
	d.ckptFailures = 0
	d.errMu.Unlock()
}

// monitorDisk samples free space under the log directory every
// diskPollEvery: WARN once when it sinks below twice the floor,
// proactively degrade to read-only below the floor itself — refusing
// writes before ENOSPC corrupts a half-written segment is the point of
// the watermark. The gauge slider_disk_free_bytes is registered in
// openDurable and reads the same source.
func (d *durability) monitorDisk() {
	tick := time.NewTicker(diskPollEvery)
	defer tick.Stop()
	warned := false
	for {
		select {
		case <-d.stopMon:
			return
		case <-tick.C:
		}
		free, err := d.fs.FreeSpace(d.dir)
		if err != nil {
			continue // unknown is not low; see vfs.FreeSpace
		}
		switch {
		case free < uint64(d.diskMinFree):
			d.enterDegraded(fmt.Errorf("disk free %d bytes below the %d-byte floor", free, d.diskMinFree))
		case free < 2*uint64(d.diskMinFree):
			if !warned {
				warned = true
				d.logger.Warn("disk space low", "free_bytes", free, "floor_bytes", d.diskMinFree)
			}
		default:
			warned = false
		}
	}
}

// Health reports the reasoner's health without blocking on inference or
// I/O: engine failures and log corruption are failed; a read-only
// durability fault or a background maintenance error is degraded (the
// former refuses writes, the latter does not); otherwise ok.
func (r *Reasoner) Health() Health {
	if err := r.engine.Err(); err != nil {
		return Health{Status: HealthFailed, Cause: err.Error(), ReadOnly: true}
	}
	if r.dur != nil {
		if h := r.dur.healthSnapshot(); h.Status != HealthOK {
			return h
		}
		if err := r.dur.getErr(); err != nil {
			// A terminal close-path error outside the state machine.
			return Health{Status: HealthFailed, Cause: err.Error(), ReadOnly: true}
		}
	}
	if err := r.BackgroundErr(); err != nil {
		return Health{Status: HealthDegraded, Cause: err.Error(), Since: r.store.CompactionErrSince()}
	}
	return Health{Status: HealthOK}
}
