package wal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestTwoPhaseCheckpointCoversMarkOnly exercises the mark/stream/commit
// split: records appended between BeginCheckpoint and CommitCheckpoint
// must stay replayable (the checkpoint covers the log up to the mark,
// not up to the install), and dirty accounting must reflect them.
func TestTwoPhaseCheckpointCoversMarkOnly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	for i := 0; i < 5; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := l.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Appends land while the payload streams.
	if err := l.Append(testRecord(100)); err != nil {
		t.Fatal(err)
	}
	snap := []byte("view-at-mark")
	err = l.WriteCheckpointPayload(m,
		func(w io.Writer) error { _, err := w.Write(snap); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(101)); err != nil {
		t.Fatal(err)
	}
	if err := l.CommitCheckpoint(m); err != nil {
		t.Fatal(err)
	}
	if !l.Dirty() {
		t.Fatal("post-mark appends exist but the log reports clean")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	s, ok, err := l2.OpenCheckpoint()
	if err != nil || !ok {
		t.Fatalf("OpenCheckpoint: ok=%v err=%v", ok, err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(s)
	s.Close()
	if !bytes.Equal(buf.Bytes(), snap) {
		t.Fatalf("snapshot payload = %q, want %q", buf.Bytes(), snap)
	}
	got, _ := replayAll(t, l2)
	if len(got) != 2 {
		t.Fatalf("tail replay has %d records, want the 2 post-mark ones", len(got))
	}
}

// TestTwoPhaseCheckpointNoTailIsClean commits a checkpoint with no
// appends after the mark: the log must report clean (a read-only session
// afterwards must not re-checkpoint).
func TestTwoPhaseCheckpointNoTailIsClean(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	replayAll(t, l)
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	m, err := l.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	err = l.WriteCheckpointPayload(m,
		func(w io.Writer) error { _, err := w.Write([]byte("x")); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CommitCheckpoint(m); err != nil {
		t.Fatal(err)
	}
	if l.Dirty() {
		t.Fatal("no post-mark appends but the log reports dirty")
	}
}

// TestAbortCheckpointRemovesPayloads aborts a streamed-but-uncommitted
// checkpoint and checks nothing of it survives, on disk or in the
// manifest.
func TestAbortCheckpointRemovesPayloads(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	replayAll(t, l)
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	m, err := l.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	err = l.WriteCheckpointPayload(m,
		func(w io.Writer) error { _, err := w.Write([]byte("doomed")); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	l.AbortCheckpoint(m)
	if l.HasCheckpoint() {
		t.Fatal("aborted checkpoint is referenced by the manifest")
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointSnapshotName(m.Gen()))); !os.IsNotExist(err) {
		t.Fatalf("aborted snapshot payload still on disk: %v", err)
	}
	if !l.Dirty() {
		t.Fatal("abort must leave the log dirty: its records are still uncovered")
	}
	// The log keeps working: the next checkpoint reuses the generation.
	err = l.WriteCheckpoint(
		func(w io.Writer) error { _, err := w.Write([]byte("second try")); return err },
	)
	if err != nil {
		t.Fatalf("checkpoint after abort: %v", err)
	}
	if !l.HasCheckpoint() {
		t.Fatal("checkpoint after abort not installed")
	}
}

// TestCommitStaleMarkRefused refuses to commit a mark from a superseded
// generation.
func TestCommitStaleMarkRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	replayAll(t, l)
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	m1, err := l.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// A full checkpoint commits in between (the facade never does this —
	// one in flight at a time — but the log must still defend itself).
	err = l.WriteCheckpoint(
		func(w io.Writer) error { _, err := w.Write([]byte("winner")); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CommitCheckpoint(m1); err == nil {
		t.Fatal("stale mark committed")
	}
}
