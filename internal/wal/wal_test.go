package wal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/rdf"
)

func testRecord(i int) Record {
	dict := rdf.NewDictionary()
	id := dict.EncodeIRI("http://example.org/x")
	return Record{
		Op: OpAssert,
		Terms: []TermEntry{
			{ID: id, Term: rdf.NewIRI("http://example.org/x")},
		},
		Triples: []rdf.Triple{
			rdf.T(id, rdf.IDType, rdf.ID(uint64(i)+1)),
			rdf.T(rdf.ID(uint64(i)+2), rdf.IDSubClassOf, id),
		},
	}
}

func replayAll(t *testing.T, l *Log) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	stats, err := l.Replay(func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs, stats
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, stats := replayAll(t, l); stats.Records != 0 {
		t.Fatalf("fresh log replayed %d records", stats.Records)
	}
	var want []Record
	for i := 0; i < 10; i++ {
		rec := testRecord(i)
		if i%3 == 0 {
			rec.Op = OpRetract
			rec.Terms = nil
		}
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, stats := replayAll(t, l2)
	if stats.TruncatedAt != -1 || stats.DroppedSegments != 0 {
		t.Fatalf("clean log needed repair: %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op ||
			!reflect.DeepEqual(got[i].Triples, want[i].Triples) ||
			len(got[i].Terms) != len(want[i].Terms) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		for j := range want[i].Terms {
			if got[i].Terms[j].ID != want[i].Terms[j].ID ||
				got[i].Terms[j].Term != want[i].Terms[j].Term {
				t.Fatalf("record %d term %d mismatch", i, j)
			}
		}
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range entries {
		if isSegmentName(e.Name()) {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("expected multiple segments, found %d", segs)
	}
	l2, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, _ := replayAll(t, l2)
	if len(got) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(got))
	}
}

func TestCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	for i := 0; i < 10; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := []byte("snapshot-payload")
	err = l.WriteCheckpoint(
		func(w io.Writer) error { _, err := w.Write(snap); return err },
	)
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	// Two more records after the checkpoint: the tail.
	if err := l.Append(testRecord(100)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(101)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.HasCheckpoint() {
		t.Fatal("checkpoint not found after reopen")
	}
	s, ok, err := l2.OpenCheckpoint()
	if err != nil || !ok {
		t.Fatalf("OpenCheckpoint: ok=%v err=%v", ok, err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(s)
	s.Close()
	if !bytes.Equal(buf.Bytes(), snap) {
		t.Fatalf("snapshot payload corrupted: %q", buf.Bytes())
	}
	got, _ := replayAll(t, l2)
	if len(got) != 2 {
		t.Fatalf("tail replay has %d records, want 2 (checkpointed records must be pruned)", len(got))
	}
}

// TestTornTailTruncation corrupts or truncates the live segment at every
// byte offset and checks that (a) replay never panics or errors, (b) all
// records before the damage survive, and (c) the log accepts appends
// afterwards and a further reopen sees a consistent file.
func TestTornTailTruncation(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	// Record the segment size after each append: boundaries[k] is the
	// file size once k records are acknowledged.
	seg := filepath.Join(master, segmentName(1))
	var boundaries []int64
	fi, _ := os.Stat(seg)
	boundaries = append(boundaries, fi.Size())
	const n = 8
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, fi.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// acknowledged(cut) = number of records wholly before offset cut.
	acknowledged := func(cut int64) int {
		k := 0
		for k+1 < len(boundaries) && boundaries[k+1] <= cut {
			k++
		}
		return k
	}

	for cut := int64(0); cut <= int64(len(raw)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), raw[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		got, stats := replayAll(t, l)
		want := acknowledged(cut)
		if len(got) != want {
			t.Fatalf("cut=%d: recovered %d records, want %d (stats %+v)", cut, len(got), want, stats)
		}
		// The repaired log must accept appends and replay them next time.
		if err := l.Append(testRecord(99)); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		got2, stats2 := replayAll(t, l2)
		if stats2.TruncatedAt != -1 {
			t.Fatalf("cut=%d: second replay still repairing: %+v", cut, stats2)
		}
		if len(got2) != want+1 {
			t.Fatalf("cut=%d: after append, recovered %d records, want %d", cut, len(got2), want+1)
		}
		l2.Close()
	}
}

// TestMidLogCorruption flips bytes in the middle of a multi-segment log:
// every record strictly before the corrupted frame must survive, later
// segments are dropped, and replay must never panic.
func TestMidLogCorruption(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{SegmentSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	const n = 12
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	idxs := []int{}
	entries, _ := os.ReadDir(master)
	for _, e := range entries {
		if idx, ok := segmentIndex(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	if len(idxs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(idxs))
	}

	// Corrupt one byte of the first segment, at a stride of offsets.
	raw, err := os.ReadFile(filepath.Join(master, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += 3 {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(master)); err != nil {
			t.Fatal(err)
		}
		mutated := append([]byte(nil), raw...)
		mutated[off] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), mutated, 0o666); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("off=%d: Open: %v", off, err)
		}
		got, stats := replayAll(t, l)
		if len(got) > n {
			t.Fatalf("off=%d: replayed %d > %d ingested", off, len(got), n)
		}
		// Whatever survived must be a prefix of what we wrote.
		for i, r := range got {
			want := testRecord(i)
			if !reflect.DeepEqual(r.Triples, want.Triples) {
				t.Fatalf("off=%d: record %d not a prefix record", off, i)
			}
		}
		if stats.TornSegment == 1 && stats.DroppedSegments == 0 && len(idxs) > 1 {
			t.Fatalf("off=%d: torn first segment but later segments kept", off)
		}
		l.Close()
	}
}

func TestDirectoryLockExcludesSecondOpen(t *testing.T) {
	if runtime.GOOS == "windows" || runtime.GOOS == "plan9" || runtime.GOOS == "js" {
		t.Skip("flock unsupported; lockDir is a no-op here")
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a locked log directory succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	l2.Close()
}

func TestCheckpointBytesTracked(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	if l.CheckpointBytes() != 0 {
		t.Fatalf("fresh log reports checkpoint bytes %d", l.CheckpointBytes())
	}
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	err = l.WriteCheckpoint(
		func(w io.Writer) error { _, err := w.Write(make([]byte, 1000)); return err },
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.CheckpointBytes(); got < 1000 {
		t.Fatalf("CheckpointBytes = %d, want >= 1000", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.CheckpointBytes(); got < 1000 {
		t.Fatalf("CheckpointBytes after reopen = %d, want >= 1000", got)
	}
}
