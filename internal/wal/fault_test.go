package wal

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/vfs"
)

// countCleanFsyncs runs the fixed append workload with no faults armed
// and reports how many fsyncs it performs — the size of the fault
// matrix.
func countCleanFsyncs(t *testing.T, nRecords int, segSize int64) int64 {
	t.Helper()
	ffs := vfs.NewFault(vfs.OS)
	l, err := Open(t.TempDir(), Options{SegmentSize: segSize, Fsync: true, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	for i := 0; i < nRecords; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatalf("clean Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return ffs.Fsyncs()
}

// TestEveryFsyncFaultMatrix injects a one-shot fsync failure at every
// fsync position a fixed workload performs — append syncs, roll syncs,
// new-segment header syncs, the close sync — and asserts, for each
// position: Recover re-arms the log, the faulted batch retries
// successfully, recovery never re-fsyncs the failed descriptor, and a
// reopen replays exactly the acknowledged records. The analogue of the
// every-byte torn-tail matrix, for runtime fsync faults.
func TestEveryFsyncFaultMatrix(t *testing.T) {
	const nRecords = 12
	const segSize = 512 // small: the workload rolls several times
	total := countCleanFsyncs(t, nRecords, segSize)
	if total < int64(nRecords) {
		t.Fatalf("workload only fsyncs %d times, expected at least one per record", total)
	}
	for k := int64(1); k <= total; k++ {
		t.Run(fmt.Sprintf("fsync%02d", k), func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFault(vfs.OS)
			l, err := Open(dir, Options{SegmentSize: segSize, Fsync: true, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			replayAll(t, l)
			ffs.FailFsync(int(k), nil)
			var acked []Record
			for i := 0; i < nRecords; i++ {
				rec := testRecord(i)
				if err := l.Append(rec); err != nil {
					// Transient fault: recover (reopen by path, never
					// re-fsync) and retry the same batch once.
					if rerr := l.Recover(); rerr != nil {
						t.Fatalf("Recover after fsync fault %d: %v", k, rerr)
					}
					if err := l.Append(rec); err != nil {
						t.Fatalf("retry after Recover: %v", err)
					}
				}
				acked = append(acked, rec)
			}
			// The fault may land on Close's final sync; the records are
			// already acknowledged (written to the file), so a Close error
			// is surfaced but loses nothing.
			_ = l.Close()
			if n := ffs.RefsyncViolations(); n != 0 {
				t.Fatalf("recovery re-fsynced a failed descriptor %d times", n)
			}

			l2, err := Open(dir, Options{SegmentSize: segSize, Fsync: true})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			got, _ := replayAll(t, l2)
			if len(got) != len(acked) {
				t.Fatalf("replayed %d records, acknowledged %d", len(got), len(acked))
			}
			for i := range acked {
				if !reflect.DeepEqual(got[i], acked[i]) {
					t.Fatalf("record %d: replayed %+v, acknowledged %+v", i, got[i], acked[i])
				}
			}
		})
	}
}

// junkPayload is a trivial checkpoint payload writer: the Log never
// interprets payload bytes, so the rename matrix does not need real
// snapshots.
func junkPayload(w io.Writer) error {
	_, err := w.Write([]byte("payload"))
	return err
}

// TestEveryRenameFaultMatrix injects a one-shot rename failure at every
// rename a fixed append-checkpoint-append workload performs (checkpoint
// snapshot install, manifest commit) and asserts:
// a failed checkpoint is retryable after Recover, the manifest commit
// point keeps replay exactly consistent with what was acknowledged, and
// no acknowledged record is lost whichever rename died.
func TestEveryRenameFaultMatrix(t *testing.T) {
	const preRecords, postRecords = 5, 3
	// A committed checkpoint covers the pre-records; replay then yields
	// only the post-records. Every rename position in the checkpoint
	// (snapshot, manifest) must preserve that contract after a
	// recover-and-retry.
	const checkpointRenames = 2
	for k := 1; k <= checkpointRenames; k++ {
		t.Run(fmt.Sprintf("rename%d", k), func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFault(vfs.OS)
			l, err := Open(dir, Options{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			replayAll(t, l)
			var acked []Record
			for i := 0; i < preRecords; i++ {
				rec := testRecord(i)
				if err := l.Append(rec); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
				acked = append(acked, rec)
			}
			ffs.FailRename(k, nil)
			if err := l.WriteCheckpoint(junkPayload); err == nil {
				t.Fatalf("checkpoint with rename fault %d unexpectedly committed", k)
			}
			// The records are still acknowledged and must still replay if
			// we crashed here; instead, recover and retry the checkpoint.
			if err := l.Recover(); err != nil {
				t.Fatalf("Recover after rename fault: %v", err)
			}
			if err := l.WriteCheckpoint(junkPayload); err != nil {
				t.Fatalf("checkpoint retry: %v", err)
			}
			var post []Record
			for i := 0; i < postRecords; i++ {
				rec := testRecord(100 + i)
				if err := l.Append(rec); err != nil {
					t.Fatalf("post-checkpoint Append %d: %v", i, err)
				}
				post = append(post, rec)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if n := ffs.RefsyncViolations(); n != 0 {
				t.Fatalf("recovery re-fsynced a failed descriptor %d times", n)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			if !l2.HasCheckpoint() {
				t.Fatal("retried checkpoint did not survive reopen")
			}
			got, _ := replayAll(t, l2)
			if len(got) != len(post) {
				t.Fatalf("replayed %d records, want the %d post-checkpoint ones", len(got), len(post))
			}
			for i := range post {
				if !reflect.DeepEqual(got[i], post[i]) {
					t.Fatalf("record %d: replayed %+v, want %+v", i, got[i], post[i])
				}
			}
			_ = acked
		})
	}
}

// TestTornWriteRecovery tears an append's write in half (the torn
// half-frame a real ENOSPC or power loss produces), then recovers: the
// partial frame must be cut back out so it can never replay, and the
// retried batch lands cleanly.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS)
	l, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	var acked []Record
	for i := 0; i < 3; i++ {
		rec := testRecord(i)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, rec)
	}
	ffs.TornWrite(1)
	rec := testRecord(3)
	if err := l.Append(rec); err == nil {
		t.Fatal("torn write did not surface")
	}
	if err := l.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := l.Append(rec); err != nil {
		t.Fatalf("retry: %v", err)
	}
	acked = append(acked, rec)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, stats := replayAll(t, l2)
	if stats.TruncatedAt != -1 {
		t.Fatalf("recovered log still needed repair on reopen: %+v", stats)
	}
	if len(got) != len(acked) {
		t.Fatalf("replayed %d records, acknowledged %d", len(got), len(acked))
	}
}

// TestEnospcRecovery exhausts a write budget mid-append (ENOSPC with the
// in-budget prefix landed), then lifts the budget and recovers.
func TestEnospcRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS)
	l, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	ffs.SetWriteBudget(4) // the next frame tears four bytes in
	rec := testRecord(1)
	if err := l.Append(rec); err == nil {
		t.Fatal("ENOSPC did not surface")
	}
	// Space is still exhausted: Recover's probe must fail, not lie.
	if err := l.Recover(); err == nil {
		t.Fatal("Recover succeeded while the disk is still full")
	}
	ffs.Clear()
	if err := l.Recover(); err != nil {
		t.Fatalf("Recover after space freed: %v", err)
	}
	if err := l.Append(rec); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, _ := replayAll(t, l2)
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
}
