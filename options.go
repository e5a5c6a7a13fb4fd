package slider

import (
	"log/slog"
	"time"

	"repro/internal/obs"
	"repro/internal/reasoner"
	"repro/internal/vfs"
)

// config collects option values for New.
type config struct {
	bufferSize int
	timeout    time.Duration
	workers    int
	observer   reasoner.Observer
	adaptive   bool
	provenance bool
	viewMaxAge time.Duration

	// reg is the metrics registry the reasoner records into. Not an
	// Option: openDurable pre-creates it so the write-ahead log can
	// register its instruments before the Reasoner exists; newReasoner
	// creates one when unset.
	reg *obs.Registry

	// Durability (see durable.go).
	durableDir      string
	walSegmentSize  int64
	checkpointEvery int64
	walFsync        bool
	fs              vfs.FS
	diskMinFree     int64
	logger          *slog.Logger
}

// Option tunes a Reasoner at construction time. The three tunables mirror
// the paper's demo Setup panel: buffer size, buffer timeout and fragment
// (the fragment is New's first argument).
type Option func(*config)

// WithBufferSize sets how many triples a rule buffer accumulates before
// it fires a rule execution. Small buffers minimise latency; large
// buffers amortise per-execution overhead. Default 128.
func WithBufferSize(n int) Option {
	return func(c *config) { c.bufferSize = n }
}

// WithTimeout sets how long an inactive non-empty buffer waits before it
// is forced to flush. Default 20ms.
func WithTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithWorkers sets the thread-pool size. Default GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithObserver attaches an Observer receiving engine events (used by the
// demo's recorder). Callbacks must be fast and thread-safe.
func WithObserver(o Observer) Option {
	return func(c *config) { c.observer = o }
}

// WithRetraction does nothing: every reasoner can retract, because its
// store keeps one bit per triple saying whether it was asserted. It is
// kept so that callers written when Reasoner.Retract needed it still
// build.
func WithRetraction() Option {
	return func(*config) {}
}

// WithProvenance enables per-triple provenance: Reasoner.Why reports
// whether a triple was asserted or which rule first derived it. Costs
// one map entry per triple.
func WithProvenance() Option {
	return func(c *config) { c.provenance = true }
}

// WithViewMaxAge bounds how stale the shared read-session snapshot may
// get before Reasoner.View quiesces the engine and captures a fresh one
// (default DefaultViewMaxAge). Smaller values mean fresher query answers
// but more frequent brief writer pauses; a negative value refreshes on
// every change.
func WithViewMaxAge(d time.Duration) Option {
	return func(c *config) { c.viewMaxAge = d }
}

// WithDurability makes the reasoner durable, rooted at dir: every
// acknowledged assert/retract batch is written to a segmented write-ahead
// log before it reaches the engine, the materialised store is
// checkpointed in the background, and reopening the same directory
// (Open, or New with this option) replays snapshot plus log tail.
// Retractions are logged, and the checkpoint keeps which triples were
// asserted, so delete-and-rederive survives restarts.
//
// Open is the error-returning constructor; New panics if the directory
// cannot be opened or replayed.
func WithDurability(dir string) Option {
	return func(c *config) { c.durableDir = dir }
}

// WithSegmentSize sets the write-ahead log's segment roll threshold in
// bytes. Default wal.DefaultSegmentSize (4 MiB).
func WithSegmentSize(bytes int64) Option {
	return func(c *config) { c.walSegmentSize = bytes }
}

// WithCheckpointEvery sets how much live (uncheckpointed) log volume, in
// bytes, triggers a background checkpoint. 0 means the default
// (DefaultCheckpointEvery); a negative value disables automatic
// checkpointing entirely, including the checkpoint Close normally takes —
// the knowledge base then recovers by replaying the full log (plus
// whatever explicit Checkpoint calls were made). The value is a floor:
// once a checkpoint outgrows it, the next one waits for the live log to
// reach half the previous checkpoint's size, keeping checkpoint I/O
// proportional to data ingested rather than quadratic in store size.
func WithCheckpointEvery(bytes int64) Option {
	return func(c *config) { c.checkpointEvery = bytes }
}

// WithFsync syncs the write-ahead log file after every append. Off by
// default: a completed batch always survives a process crash, but only
// fsynced batches survive a power failure.
func WithFsync() Option {
	return func(c *config) { c.walFsync = true }
}

// WithVFS routes every file operation of the durability stack (log
// segments, manifest commits, checkpoints) through fs instead of the
// real disk. Production code never needs it; the disk-fault torture
// harness passes a vfs.FaultFS to script ENOSPC, fsync and rename
// failures deterministically.
func WithVFS(fs vfs.FS) Option {
	return func(c *config) { c.fs = fs }
}

// WithDiskMinFree sets a free-space floor in bytes for the knowledge
// base's filesystem: a background monitor samples free space, warns
// below twice the floor, and proactively enters read-only degraded mode
// below it — refusing writes before ENOSPC can tear a segment. 0 (the
// default) disables the monitor. Recovery is automatic once space is
// freed.
func WithDiskMinFree(bytes int64) Option {
	return func(c *config) { c.diskMinFree = bytes }
}

// WithLogger sets the structured logger the reasoner's background
// machinery (degradation transitions, recovery probes, disk watermarks)
// reports to. Defaults to slog.Default().
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.logger = l }
}

// WithAdaptiveScheduling enables run-time buffer-capacity adaptation:
// rule modules that keep inferring nothing batch more triples per
// execution, productive modules stay reactive. The materialised closure
// is unaffected.
func WithAdaptiveScheduling() Option {
	return func(c *config) { c.adaptive = true }
}
