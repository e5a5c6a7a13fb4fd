package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkVersion1Refusal fails unless err wraps want and tells the reader
// the data is format version 1 and must be exported and reloaded.
func checkVersion1Refusal(t *testing.T, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want an error wrapping %v", err, want)
	}
	for _, s := range []string{"version 1", "export", "reload"} {
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("error %q does not mention %q", err, s)
		}
	}
}

// TestOpenRefusesVersion1 opens a directory written in format version 1
// — manifest, a segment with a record, and a checkpoint — and checks
// that Open refuses it before replay could cut the segment, leaving
// every file as it was.
func TestOpenRefusesVersion1(t *testing.T) {
	dir := t.TempDir()
	seg := append([]byte("SLWL\x01"), rawFrame(rawPayload([4]uint64{5, 5, 1, 2<<62 | 9}))...)
	files := map[string][]byte{
		manifestName:              []byte(`{"version":1,"checkpoint":1,"first_segment":2}`),
		segmentName(2):            seg,
		checkpointSnapshotName(1): []byte("SLKB\x01\x00\x00"),
		checkpointExplicitName(1): rawExplicit(1, [3]uint64{5, 1, 2<<62 | 9}),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(dir, Options{})
	if err == nil {
		l.Close()
	}
	checkVersion1Refusal(t, err, ErrCorrupt)
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by a refused Open: %q (%v), was %q", name, got, err, want)
		}
	}
}

func TestReadExplicitRefusesVersion1(t *testing.T) {
	_, err := ReadExplicit(bytes.NewReader(rawExplicit(1, [3]uint64{5, 1, 2<<62 | 9})))
	checkVersion1Refusal(t, err, ErrCorrupt)
}
