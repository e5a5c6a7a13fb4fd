package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWAL feeds arbitrary bytes to the segment scanner as a segment
// file. Invariants under fuzzing:
//
//   - Open and Replay never panic, whatever the bytes are.
//   - Every replayed record re-encodes to exactly the bytes it was
//     decoded from, so the recovered records form a byte-prefix of the
//     file — i.e. corruption never invents or reorders records, and
//     every record before the corruption point is recovered.
//   - After repair the log accepts a fresh append and replays it.
func FuzzWAL(f *testing.F) {
	// Seed: a well-formed segment with a few records.
	valid := append(segmentMagic[:], Version)
	for i := 0; i < 3; i++ {
		valid = appendRecord(valid, testRecord(i))
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])             // torn tail
	f.Add([]byte{})                         // empty file
	f.Add(append(segmentMagic[:], Version)) // header only
	f.Add([]byte("SLWL\x01"))               // format version 1 header
	f.Add([]byte("not a wal at all"))       // bad magic
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0xff // mid-file corruption
	f.Add(mutated)
	f.Add(outOfRangeSegment()) // kind bits 11 under a valid CRC
	wide := validIDs
	wide[1] = 1<<64 - 1 // a 10-byte uvarint subject under a valid CRC
	f.Add(append(append(segmentMagic[:], Version), rawFrame(rawPayload(wide))...))
	f.Add(inferSegment()) // an inferred-triple record under a valid CRC

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o666); err != nil {
			t.Skip()
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on arbitrary segment bytes: %v", err)
		}
		reencoded := append(segmentMagic[:], Version)
		n := 0
		if _, err := l.Replay(func(r Record) error {
			reencoded = appendRecord(reencoded, r)
			n++
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if n > 0 {
			if len(data) < len(reencoded) || !bytes.Equal(data[:len(reencoded)], reencoded) {
				t.Fatalf("recovered records are not a byte-prefix of the input (%d records)", n)
			}
		}
		if err := l.Append(testRecord(42)); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		n2 := 0
		if _, err := l2.Replay(func(Record) error { n2++; return nil }); err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if n2 != n+1 {
			t.Fatalf("after repair+append replay saw %d records, want %d", n2, n+1)
		}
	})
}
