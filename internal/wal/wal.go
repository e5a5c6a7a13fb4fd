// Package wal makes the knowledge base durable: it maintains a
// segmented, append-only write-ahead log of assert/retract batches —
// varint-framed, CRC32-checked records over dictionary-encoded triples
// plus the dictionary deltas that name them — together with periodic
// checkpoints in the internal/snapshot format. The frame codec
// (EncodeFrame, ReadFrame) is the one durable encoding of terms and
// triples: a snapshot is a header followed by the same frames, so the
// log and its checkpoints share one format Version and one set of
// length, CRC and ID checks.
//
// On-disk layout of a log directory:
//
//	MANIFEST.json               commit point: current checkpoint
//	                            generation and first live segment
//	segment-00000001.wal        framed records, oldest live segment
//	segment-00000002.wal        ... the highest-numbered segment is the
//	                            one being appended to
//	checkpoint-00000001.slkb    snapshot of the materialised store
//	                            (internal/snapshot format), which marks
//	                            the explicit triples, for restartable DRed
//
// A checkpoint covers every segment that was closed before it was
// taken; covered segments are deleted once the manifest commits the new
// generation. Recovery therefore loads the manifest's checkpoint and
// replays only the live segments. The final record of the last segment
// may be torn by a crash: replay truncates the segment back to the last
// record whose CRC verifies, so a crash mid-append loses at most the
// batch that was never acknowledged. All state transitions go through
// write-to-temp-then-rename, so a crash during checkpointing or pruning
// leaves only unreferenced files, which the next Open sweeps.
package wal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Segment header: magic plus a format version byte.
var segmentMagic = [4]byte{'S', 'L', 'W', 'L'}

// Version of the on-disk format, shared by the segments, the manifest
// and the snapshots (internal/snapshot), which are written in the same
// frames. Version 1 wrote 64-bit IDs; version 2 wrote the explicit
// triple set in a checkpoint sidecar, which version 3 folded into the
// snapshot; version 4 writes the snapshot in CRC-checked frames.
const Version = 4

// unsupportedVersion is the error for a file of format version v, not
// Version. Older data is refused, not converted.
func unsupportedVersion(what string, v int) error {
	return fmt.Errorf("%w: %s is format version %d, not %d: export the data to N-Triples with the release that wrote it and reload it", ErrCorrupt, what, v, Version)
}

const (
	manifestName  = "MANIFEST.json"
	segmentPrefix = "segment-"
	segmentSuffix = ".wal"
	ckptPrefix    = "checkpoint-"
	ckptSnapshot  = ".slkb"
)

// ErrCorrupt reports a log whose surviving prefix could not be
// reconciled (e.g. an unreadable manifest). Torn record tails are NOT
// errors — they are repaired silently.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// DefaultSegmentSize is the roll threshold for segment files.
const DefaultSegmentSize = 4 << 20

// Options tunes a Log.
type Options struct {
	// SegmentSize is the byte size past which the live segment is closed
	// and a new one started. 0 means DefaultSegmentSize.
	SegmentSize int64
	// Fsync syncs the segment file after every append. Off by default:
	// the process-crash guarantee (a completed Append survives) holds
	// without it, at the cost of the power-failure guarantee.
	Fsync bool
	// Metrics, when non-nil, instruments the append path (see
	// NewMetrics). Nil keeps the log free of clock reads.
	Metrics *Metrics
	// FS is the filesystem the log lives on. Nil means vfs.OS (the real
	// disk); the torture harness passes a vfs.FaultFS to script faults.
	FS vfs.FS
}

// manifest is the durable commit record of the log's state.
type manifest struct {
	Version      int `json:"version"`
	Checkpoint   int `json:"checkpoint"`    // generation; 0 = none
	FirstSegment int `json:"first_segment"` // lowest live segment index
	// Meta is an opaque client string (the facade records the reasoning
	// fragment here, so a KB is never reopened under different rules).
	Meta string `json:"meta,omitempty"`
}

// Log is a segmented write-ahead log rooted at one directory. All
// methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options
	fs   vfs.FS

	mu        sync.Mutex
	man       manifest
	cur       vfs.File // live segment, opened for append
	curIdx    int      // index of the live segment
	curSize   int64    // size of the live segment in bytes
	curFailed bool     // cur's fsync failed: the handle is poisoned until Recover reopens it
	liveSize  int64    // total bytes across live segments (incl. headers)
	dirty     bool     // records exist that no checkpoint covers
	ckptBytes int64    // on-disk size of the current checkpoint, 0 if none
	appendSeq uint64   // successful appends this session, for checkpoint marks
	replayed  bool
	closed    bool
	buf       []byte // scratch append buffer, reused across records
	unlock    func() // releases the directory lock
}

// Open opens (creating if necessary) the log directory, repairs any
// half-committed checkpoint or prune left by a crash, and positions the
// log for Replay followed by Append.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.FS == nil {
		opts.FS = vfs.OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS, unlock: unlock}
	if err := l.loadManifest(); err != nil {
		unlock()
		return nil, err
	}
	if err := l.sweep(); err != nil {
		unlock()
		return nil, err
	}
	if err := l.openSegments(); err != nil {
		unlock()
		return nil, err
	}
	l.ckptBytes = l.statCheckpoint(l.man.Checkpoint)
	return l, nil
}

// statCheckpoint returns the on-disk size of a checkpoint generation's
// snapshot (0 for generation 0 or a missing file).
func (l *Log) statCheckpoint(gen int) int64 {
	if gen == 0 {
		return 0
	}
	if fi, err := l.fs.Stat(filepath.Join(l.dir, checkpointSnapshotName(gen))); err == nil {
		return fi.Size()
	}
	return 0
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// Meta returns the opaque client string recorded in the manifest ("" if
// none was ever set).
func (l *Log) Meta() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.man.Meta
}

// SetMeta durably records an opaque client string in the manifest.
func (l *Log) SetMeta(meta string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	m := l.man
	m.Meta = meta
	return l.writeManifest(m)
}

func (l *Log) loadManifest() error {
	b, err := l.fs.ReadFile(filepath.Join(l.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		l.man = manifest{Version: Version, FirstSegment: 1}
		return l.writeManifest(l.man)
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("%w: unreadable manifest: %v", ErrCorrupt, err)
	}
	if m.Version != Version {
		return unsupportedVersion("log", m.Version)
	}
	if m.FirstSegment < 1 || m.Checkpoint < 0 {
		return fmt.Errorf("%w: nonsense manifest %+v", ErrCorrupt, m)
	}
	l.man = m
	return nil
}

// writeManifest commits m via write-to-temp-then-rename.
func (l *Log) writeManifest(m manifest) error {
	if err := commitManifestFile(l.fs, l.dir, m); err != nil {
		return err
	}
	l.man = m
	return nil
}

// commitManifestFile durably writes m as dir's manifest: marshal, write
// and fsync a temp file, rename it into place, fsync the directory. The
// lock-free core shared by writeManifest and CommitCheckpoint — the
// commit protocol must exist exactly once.
func commitManifestFile(fs vfs.FS, dir string, m manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeFileSync(fs, tmp, b); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	fs.SyncDir(dir)
	return nil
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(fs vfs.FS, path string, data []byte) error {
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweep removes files the manifest does not reference: checkpoints of
// other generations, segments below FirstSegment, and stray temp files —
// the debris of a crash between renames and the manifest commit.
func (l *Log) sweep() error {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		var doomed bool
		switch {
		case name == manifestName:
		case filepath.Ext(name) == ".tmp":
			doomed = true
		case isSegmentName(name):
			idx, ok := segmentIndex(name)
			doomed = !ok || idx < l.man.FirstSegment
		case isCheckpointName(name):
			gen, ok := checkpointGen(name)
			doomed = !ok || gen != l.man.Checkpoint
		}
		if doomed {
			if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

func isSegmentName(name string) bool {
	return len(name) > len(segmentPrefix)+len(segmentSuffix) &&
		name[:len(segmentPrefix)] == segmentPrefix &&
		filepath.Ext(name) == segmentSuffix
}

func segmentIndex(name string) (int, bool) {
	var idx int
	_, err := fmt.Sscanf(name, segmentPrefix+"%08d"+segmentSuffix, &idx)
	return idx, err == nil && idx >= 1
}

func segmentName(idx int) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, idx, segmentSuffix)
}

func isCheckpointName(name string) bool {
	return len(name) > len(ckptPrefix) && name[:len(ckptPrefix)] == ckptPrefix
}

func checkpointGen(name string) (int, bool) {
	if filepath.Ext(name) != ckptSnapshot {
		return 0, false
	}
	var gen int
	_, err := fmt.Sscanf(name, ckptPrefix+"%08d", &gen)
	return gen, err == nil && gen >= 1
}

func checkpointSnapshotName(gen int) string {
	return fmt.Sprintf("%s%08d%s", ckptPrefix, gen, ckptSnapshot)
}

// liveSegments lists the live segment indices in ascending order.
func (l *Log) liveSegments() ([]int, error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range entries {
		if !isSegmentName(e.Name()) {
			continue
		}
		if idx, ok := segmentIndex(e.Name()); ok && idx >= l.man.FirstSegment {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// openSegments finds the live segment set and sizes, creating the first
// segment if none exists.
func (l *Log) openSegments() error {
	idxs, err := l.liveSegments()
	if err != nil {
		return err
	}
	if len(idxs) == 0 {
		return l.createSegment(l.man.FirstSegment)
	}
	l.liveSize = 0
	for _, idx := range idxs {
		fi, err := l.fs.Stat(filepath.Join(l.dir, segmentName(idx)))
		if err != nil {
			return err
		}
		l.liveSize += fi.Size()
	}
	last := idxs[len(idxs)-1]
	f, err := l.fs.OpenFile(filepath.Join(l.dir, segmentName(last)), os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.cur, l.curIdx, l.curSize = f, last, fi.Size()
	return nil
}

// createSegment makes segment idx the live one, writing its header.
func (l *Log) createSegment(idx int) error {
	f, err := l.fs.OpenFile(filepath.Join(l.dir, segmentName(idx)),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := append(segmentMagic[:], Version)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if l.opts.Fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	l.cur, l.curIdx, l.curSize, l.curFailed = f, idx, int64(len(hdr)), false
	l.liveSize += int64(len(hdr))
	return nil
}

// ReplayStats reports what Replay found and repaired.
type ReplayStats struct {
	// Records is the number of valid records replayed.
	Records int
	// TruncatedAt is the byte offset the torn segment was cut back to,
	// or -1 if no repair was needed.
	TruncatedAt int64
	// TornSegment is the index of the repaired segment (0 if none).
	TornSegment int
	// DroppedSegments counts segments discarded because they followed a
	// torn record in an earlier segment.
	DroppedSegments int
}

// Replay iterates every valid record in the live segments in append
// order, repairing the log as it goes: the first invalid frame and
// everything after it (the torn tail of a crashed process) is truncated
// away, so the log ends at the last acknowledged record and subsequent
// Appends continue from a consistent point. Replay must be called once,
// before the first Append; fn returning an error aborts the replay.
func (l *Log) Replay(fn func(Record) error) (ReplayStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stats := ReplayStats{TruncatedAt: -1}
	if l.closed {
		return stats, ErrClosed
	}
	if l.replayed {
		return stats, fmt.Errorf("wal: Replay called twice")
	}
	l.replayed = true

	idxs, err := l.liveSegments()
	if err != nil {
		return stats, err
	}
	torn := 0 // first segment with an invalid frame, 0 if none
	for _, idx := range idxs {
		path := filepath.Join(l.dir, segmentName(idx))
		b, err := l.fs.ReadFile(path)
		if err != nil {
			return stats, err
		}
		off := len(segmentMagic) + 1
		if len(b) < off || [4]byte{b[0], b[1], b[2], b[3]} != segmentMagic || b[4] != Version {
			// Unreadable header: drop the whole segment.
			torn, off = idx, 0
		}
		if torn == 0 {
			br := bytes.NewReader(b[off:])
			for {
				rec, buf, err := ReadFrame(br, l.buf)
				l.buf = buf
				if err == io.EOF {
					break
				}
				// An inferred-triple record belongs in a snapshot, never
				// in the log: one here is corruption.
				if err != nil || rec.Op == OpInfer {
					torn = idx
					break
				}
				if err := fn(rec); err != nil {
					return stats, err
				}
				stats.Records++
				off = len(b) - br.Len()
			}
		}
		if torn == idx {
			// Cut the segment back to its last valid record.
			stats.TornSegment, stats.TruncatedAt = idx, int64(off)
			if err := l.truncateFrom(idx, int64(off), idxs, &stats); err != nil {
				return stats, err
			}
			break
		}
	}
	l.dirty = stats.Records > 0
	return stats, nil
}

// truncateFrom repairs a torn log: segment idx is truncated to size, and
// every later segment is deleted. The live segment handle is repositioned
// so appends continue at the repaired tail.
func (l *Log) truncateFrom(idx int, size int64, idxs []int, stats *ReplayStats) error {
	if l.cur != nil {
		l.cur.Close()
		l.cur = nil
	}
	for _, later := range idxs {
		if later <= idx {
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.dir, segmentName(later))); err != nil {
			return err
		}
		stats.DroppedSegments++
	}
	l.liveSize = 0
	for _, i := range idxs {
		if i < idx {
			fi, err := l.fs.Stat(filepath.Join(l.dir, segmentName(i)))
			if err != nil {
				return err
			}
			l.liveSize += fi.Size()
		}
	}
	path := filepath.Join(l.dir, segmentName(idx))
	if size <= int64(len(segmentMagic)+1) {
		// Nothing valid survives, not even the header: rebuild it.
		if err := l.fs.Remove(path); err != nil {
			return err
		}
		return l.createSegment(idx)
	}
	if err := l.fs.Truncate(path, size); err != nil {
		return err
	}
	f, err := l.fs.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	l.cur, l.curIdx, l.curSize, l.curFailed = f, idx, size, false
	l.liveSize += size
	return nil
}

// Append durably adds one record to the log. When Append returns nil the
// record will survive a process crash (and a power failure, when
// Options.Fsync is set). The live segment rolls once it exceeds
// Options.SegmentSize.
func (l *Log) Append(rec Record) error { return l.append(rec, nil) }

// AppendCtx is Append carrying trace context: when ctx holds a span,
// the record's append (and its fsync, separately — the usual latency
// culprit) appear as child spans in the batch's flight trace.
func (l *Log) AppendCtx(ctx context.Context, rec Record) error {
	sp := trace.FromContext(ctx).Child("wal.append")
	err := l.append(rec, sp)
	if err != nil {
		sp.Error(err.Error())
	}
	sp.End()
	return err
}

// append is the shared body; sp may be nil.
func (l *Log) append(rec Record, sp *trace.Span) error {
	var t0 time.Time
	if l.opts.Metrics != nil {
		t0 = obs.NowIfEnabled()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := validateRecord(rec); err != nil {
		return err
	}
	var frame []byte
	frame, l.buf = EncodeFrame(l.buf, rec)
	if int64(len(frame)) > maxRecordLen {
		return fmt.Errorf("%w: record of %d bytes exceeds the %d-byte frame limit", ErrRejected, len(frame), maxRecordLen)
	}
	if l.cur == nil {
		return fmt.Errorf("wal: no live segment")
	}
	if l.curFailed {
		// A previous fsync on this handle failed. Its dirty pages are in
		// an unknown state and syncing it again proves nothing (the
		// kernel clears the error on report), so the handle is poisoned
		// until Recover reopens the segment by path.
		return fmt.Errorf("wal: live segment poisoned by failed fsync; Recover first")
	}
	preSize := l.curSize
	// backOut removes the frame again: when Append returns an error the
	// caller treats the batch as rejected, so a durably-written frame
	// must not survive to be replayed as acknowledged on the next Open.
	// Best-effort by handle or by path (the handle may be closed if a
	// segment roll failed halfway).
	backOut := func() {
		if l.cur == nil || l.cur.Truncate(preSize) != nil {
			l.fs.Truncate(filepath.Join(l.dir, segmentName(l.curIdx)), preSize)
		}
		l.curSize = preSize
	}
	// Seek explicitly: the handle may predate an external truncation.
	if _, err := l.cur.Seek(preSize, io.SeekStart); err != nil {
		return err
	}
	if n, err := l.cur.Write(frame); err != nil {
		if n > 0 {
			backOut()
		}
		return err
	}
	if l.opts.Fsync {
		var s0 time.Time
		if l.opts.Metrics != nil {
			s0 = obs.NowIfEnabled()
		}
		fsp := sp.Child("wal.fsync")
		l.assertSyncable()
		if err := l.cur.Sync(); err != nil {
			l.curFailed = true
			fsp.Error(err.Error())
			fsp.End()
			backOut()
			return err
		}
		fsp.End()
		if l.opts.Metrics != nil {
			l.opts.Metrics.FsyncSeconds.ObserveSince(s0)
		}
	}
	l.curSize += int64(len(frame))
	l.liveSize += int64(len(frame))
	l.dirty = true
	if l.curSize >= l.opts.SegmentSize {
		if err := l.roll(); err != nil {
			// Rolling is bookkeeping for the next record, but the caller
			// will treat this append as failed — back the record out so
			// recovery agrees with what the caller was told.
			l.liveSize -= int64(len(frame))
			backOut()
			return err
		}
	}
	l.appendSeq++
	sp.SetInt("bytes", int64(len(frame)))
	if m := l.opts.Metrics; m != nil {
		m.Appends.Inc()
		m.AppendBytes.Add(int64(len(frame)))
		m.AppendSeconds.ObserveSince(t0)
	}
	return nil
}

// roll closes the live segment and starts the next one. l.cur is nil on
// return unless a new segment was installed: even a failed Close
// releases the descriptor, and a dangling handle would make later
// truncate-by-handle repairs silently no-ops.
//
// The closed segment is fsynced only under Options.Fsync: without it the
// log promises process-crash survival only, which the page cache already
// provides — and rolls happen inside the append lock (including the
// checkpoint mark phase), where a multi-megabyte sync would stall every
// writer for disk-flush time.
func (l *Log) roll() error {
	// A roll can be reached from the checkpoint path while a fault has
	// already degraded the live segment (append faults leave a poisoned
	// handle; a half-failed roll leaves none at all). Refuse with the
	// append-path error rather than dereferencing or — worse —
	// re-fsyncing a handle whose sync already failed.
	if l.cur == nil {
		return fmt.Errorf("wal: no live segment after a failed roll; Recover first")
	}
	if l.curFailed {
		return fmt.Errorf("wal: live segment poisoned by failed fsync; Recover first")
	}
	if l.opts.Fsync {
		l.assertSyncable()
		if err := l.cur.Sync(); err != nil {
			l.curFailed = true
			return err
		}
	}
	err := l.cur.Close()
	l.cur = nil
	if err != nil {
		return err
	}
	if l.opts.Metrics != nil {
		l.opts.Metrics.SegmentRolls.Inc()
	}
	return l.createSegment(l.curIdx + 1)
}

// LiveBytes returns the total size of the live segments — the volume of
// log a recovery would have to replay, and the signal the facade uses to
// decide when to checkpoint.
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.liveSize
}

// HasCheckpoint reports whether the manifest references a checkpoint.
func (l *Log) HasCheckpoint() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.man.Checkpoint != 0
}

// OpenCheckpoint opens the current checkpoint's snapshot for reading. ok
// is false when no checkpoint exists.
func (l *Log) OpenCheckpoint() (snap io.ReadCloser, ok bool, err error) {
	l.mu.Lock()
	gen := l.man.Checkpoint
	l.mu.Unlock()
	if gen == 0 {
		return nil, false, nil
	}
	s, err := l.fs.Open(filepath.Join(l.dir, checkpointSnapshotName(gen)))
	if err != nil {
		return nil, false, err
	}
	return s, true, nil
}

// CheckpointMark identifies the log position a two-phase checkpoint
// covers: everything appended before BeginCheckpoint returned. It is
// the handle threaded through WriteCheckpointPayload and
// CommitCheckpoint/AbortCheckpoint.
type CheckpointMark struct {
	gen       int    // generation the checkpoint installs as
	covered   int    // highest segment index the checkpoint covers
	appendSeq uint64 // append counter at mark time, for dirty accounting
}

// Gen returns the checkpoint generation the mark will install.
func (m CheckpointMark) Gen() int { return m.gen }

// BeginCheckpoint opens a two-phase checkpoint: it rolls the live
// segment — an O(1) close-and-create, the only part that excludes
// appends — and returns a mark covering every record appended so far.
// The caller then streams the payload (WriteCheckpointPayload) while
// appends continue into the fresh segment, and finally installs the
// manifest with CommitCheckpoint. Only one checkpoint may be in flight
// at a time; that is the caller's responsibility.
func (l *Log) BeginCheckpoint() (CheckpointMark, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return CheckpointMark{}, ErrClosed
	}
	// Roll so the covered set is exactly the segments before the new
	// live one, ending on a record boundary.
	covered := l.curIdx
	if err := l.roll(); err != nil {
		return CheckpointMark{}, err
	}
	return CheckpointMark{
		gen:       l.man.Checkpoint + 1,
		covered:   covered,
		appendSeq: l.appendSeq,
	}, nil
}

// WriteCheckpointPayload streams the snapshot for the mark to its
// generation-named file (write-to-temp, fsync, rename). It runs without
// the log's lock: the file is invisible to recovery until
// CommitCheckpoint installs the manifest, and concurrent appends proceed
// against the post-mark live segment. The payload must reflect exactly
// the records the mark covers.
func (l *Log) WriteCheckpointPayload(m CheckpointMark, writeSnapshot func(io.Writer) error) error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := writeCheckpointFile(l.fs, filepath.Join(l.dir, checkpointSnapshotName(m.gen)), writeSnapshot); err != nil {
		return err
	}
	l.fs.SyncDir(l.dir)
	return nil
}

// CommitCheckpoint makes the mark's checkpoint the recovery point: it
// commits the manifest referencing the new generation, then prunes the
// covered segments and the previous generation's snapshot. Records appended
// after the mark stay in the live segments and remain replayable — the
// checkpoint covers the log up to the mark, not up to the install.
func (l *Log) CommitCheckpoint(m CheckpointMark) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if m.gen != l.man.Checkpoint+1 {
		l.mu.Unlock()
		return fmt.Errorf("wal: stale checkpoint mark (generation %d, log at %d)", m.gen, l.man.Checkpoint)
	}
	oldGen := l.man.Checkpoint
	oldFirst := l.man.FirstSegment
	mm := l.man
	mm.Checkpoint, mm.FirstSegment = m.gen, m.covered+1
	l.mu.Unlock()

	// Write and fsync the manifest OUTSIDE the lock: the fsync forces a
	// filesystem-journal commit, which on ordered-data filesystems also
	// writes back the appends in flight — holding the lock across it
	// would stall every writer for exactly the disk time the two-phase
	// split exists to hide. Safe unlocked: checkpoints are serialized by
	// the caller and nothing else rewrites the manifest mid-session.
	if err := commitManifestFile(l.fs, l.dir, mm); err != nil {
		return err
	}

	var pruned int64
	for idx := oldFirst; idx <= m.covered; idx++ {
		if fi, err := l.fs.Stat(filepath.Join(l.dir, segmentName(idx))); err == nil {
			pruned += fi.Size()
		}
	}
	l.mu.Lock()
	l.man = mm
	l.liveSize -= pruned
	// Dirty exactly when records were appended after the mark: those live
	// in the post-mark segments the new checkpoint does not cover.
	l.dirty = l.appendSeq != m.appendSeq
	l.ckptBytes = l.statCheckpoint(m.gen)
	l.mu.Unlock()

	// The manifest is the commit point; pruning is cleanup that the next
	// Open would redo, so errors here are not fatal — and it too runs
	// outside the lock: unlinking megabytes of covered segments can
	// stall in the filesystem journal, and appends must not wait behind
	// that. The files are immutable and unreferenced by now, so nothing
	// races.
	for idx := oldFirst; idx <= m.covered; idx++ {
		l.fs.Remove(filepath.Join(l.dir, segmentName(idx)))
	}
	if oldGen != 0 {
		l.fs.Remove(filepath.Join(l.dir, checkpointSnapshotName(oldGen)))
	}
	return nil
}

// AbortCheckpoint discards the payload file of a checkpoint that will
// not be committed (stream failure, shutdown). Best-effort: anything it
// misses is unreferenced by the manifest and swept by the next Open.
func (l *Log) AbortCheckpoint(m CheckpointMark) {
	l.mu.Lock()
	committed := l.man.Checkpoint
	l.mu.Unlock()
	if m.gen == committed {
		return
	}
	l.fs.Remove(filepath.Join(l.dir, checkpointSnapshotName(m.gen)))
}

// WriteCheckpoint atomically installs a new checkpoint covering every
// record appended so far, composing the two-phase primitives
// back-to-back. The caller must guarantee the payload reflects at least
// every record acknowledged before the call and that no appends land
// between the mark and the payload capture (in practice: the store is
// quiescent and appends are blocked).
func (l *Log) WriteCheckpoint(writeSnapshot func(io.Writer) error) error {
	m, err := l.BeginCheckpoint()
	if err != nil {
		return err
	}
	if err := l.WriteCheckpointPayload(m, writeSnapshot); err != nil {
		l.AbortCheckpoint(m)
		return err
	}
	return l.CommitCheckpoint(m)
}

// CheckpointBytes returns the on-disk size of the current checkpoint (0
// if none) — the cost of writing the next one, roughly. The facade uses
// it to space automatic checkpoints proportionally to the store size
// instead of rewriting a huge store every fixed number of log bytes.
func (l *Log) CheckpointBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptBytes
}

// Dirty reports whether the log holds records no checkpoint covers — if
// false, the current checkpoint (or, for an empty log, nothing at all)
// already captures every acknowledged operation, and checkpointing again
// would rewrite identical state.
func (l *Log) Dirty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirty
}

// syncChunk bounds how much dirty checkpoint payload accumulates before
// writeback of it is kicked off in the background. One store-sized
// fsync at the end would force a single huge filesystem-journal commit,
// and concurrent small writes — the log appends the two-phase
// checkpoint exists to keep flowing — can stall behind it; streaming
// the writeback keeps the final commit, and therefore the worst writer
// stall, small.
const syncChunk = 256 << 10

// chunkSyncWriter starts asynchronous writeback every syncChunk bytes
// written (see flushRange).
type chunkSyncWriter struct {
	f          vfs.File
	off, since int64
}

func (w *chunkSyncWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.since += int64(n)
	if err == nil && w.since >= syncChunk {
		flushRange(w.f, w.off, w.since)
		w.off += w.since
		w.since = 0
	}
	return n, err
}

// writeCheckpointFile streams write's output to path.tmp, fsyncs (with
// writeback streamed along the way so the sync's journal commit stays
// small), and renames it into place.
func writeCheckpointFile(fs vfs.FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := &chunkSyncWriter{f: f}
	if err := write(w); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	settleWriteback(f, w.off+w.since)
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.Rename(tmp, path)
}

// Recover re-arms a log whose live segment hit a write, fsync, or roll
// fault: it discards the poisoned handle (never re-fsyncing it — a
// failed fsync's dirty pages are in an unknown state and the kernel
// clears the error once reported), removes half-created segments a
// failed roll left above the live index (their O_EXCL creation would
// otherwise fail forever), truncates the live segment back to its
// acknowledged size, reopens it by path, and proves the directory
// writable again with a write+fsync+remove probe. Returns nil when the
// log is ready to append; an error means the fault persists.
func (l *Log) Recover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.cur != nil {
		l.cur.Close() // never Sync here: the handle may carry a failed fsync
		l.cur = nil
		l.curFailed = false
	}
	idxs, err := l.liveSegments()
	if err != nil {
		return err
	}
	for _, idx := range idxs {
		if idx > l.curIdx {
			if err := l.fs.Remove(filepath.Join(l.dir, segmentName(idx))); err != nil {
				return err
			}
		}
	}
	path := filepath.Join(l.dir, segmentName(l.curIdx))
	if fi, err := l.fs.Stat(path); err != nil {
		return err
	} else if fi.Size() > l.curSize {
		// A torn or backed-out write left bytes past the acknowledged
		// tail; cut them off so they can never replay.
		if err := l.fs.Truncate(path, l.curSize); err != nil {
			return err
		}
	}
	f, err := l.fs.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Probe durability end to end on a scratch file: a sweep removes
	// probe.tmp on the next Open if we crash between write and remove.
	probe := filepath.Join(l.dir, "probe.tmp")
	if err := writeFileSync(l.fs, probe, []byte("probe")); err != nil {
		f.Close()
		l.fs.Remove(probe)
		return err
	}
	if err := l.fs.Remove(probe); err != nil {
		f.Close()
		return err
	}
	l.cur = f
	return nil
}

// Close syncs and closes the live segment. The log must not be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.cur != nil {
		// A handle poisoned by a failed fsync is closed without syncing:
		// re-fsyncing it would report clean while proving nothing.
		if !l.curFailed {
			err = l.cur.Sync()
		}
		if cerr := l.cur.Close(); err == nil {
			err = cerr
		}
		l.cur = nil
	}
	if l.unlock != nil {
		l.unlock()
		l.unlock = nil
	}
	return err
}
