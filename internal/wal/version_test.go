package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkRefusal fails unless err wraps want and tells the reader the data
// is of the given format version and must be exported and reloaded.
func checkRefusal(t *testing.T, err, want error, version string) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want an error wrapping %v", err, want)
	}
	for _, s := range []string{version, "export", "reload"} {
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("error %q does not mention %q", err, s)
		}
	}
}

// checkOpenRefuses writes files into a fresh directory and checks that
// Open refuses it as format version v before replay could cut a segment
// or the sweep remove a file, leaving every file as it was.
func checkOpenRefuses(t *testing.T, v int, files map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(dir, Options{})
	if err == nil {
		l.Close()
	}
	checkRefusal(t, err, ErrCorrupt, fmt.Sprintf("version %d", v))
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by a refused Open: %q (%v), was %q", name, got, err, want)
		}
	}
}

// TestOpenRefusesVersion1 opens a directory written in format version 1
// — manifest, a segment with a record, and a checkpoint with its
// explicit-set sidecar — and checks that Open refuses it untouched.
func TestOpenRefusesVersion1(t *testing.T) {
	checkOpenRefuses(t, 1, map[string][]byte{
		manifestName:                   []byte(`{"version":1,"checkpoint":1,"first_segment":2}`),
		segmentName(2):                 append([]byte("SLWL\x01"), rawFrame(rawPayload([4]uint64{5, 5, 1, 2<<62 | 9}))...),
		checkpointSnapshotName(1):      []byte("SLKB\x01\x00\x00"),
		"checkpoint-00000001.explicit": []byte("SLEX\x01\x00"),
	})
}

// TestOpenRefusesVersion2 opens a directory written in format version 2,
// whose checkpoint kept the explicit triples in a sidecar file rather
// than in the snapshot, and checks that Open refuses it untouched — the
// sidecar included, which a sweep would otherwise delete as unknown.
func TestOpenRefusesVersion2(t *testing.T) {
	checkOpenRefuses(t, 2, map[string][]byte{
		manifestName:                   []byte(`{"version":2,"checkpoint":1,"first_segment":2}`),
		segmentName(2):                 append([]byte("SLWL\x02"), rawFrame(rawPayload([4]uint64{5, 5, 1, 2<<30 | 9}))...),
		checkpointSnapshotName(1):      []byte("SLKB\x02\x00\x00"),
		"checkpoint-00000001.explicit": []byte("SLEX\x02\x00"),
	})
}

// TestOpenRefusesVersion3 opens a directory written in format version 3,
// whose checkpoint snapshot had its own codec without a CRC, and checks
// that Open refuses it untouched.
func TestOpenRefusesVersion3(t *testing.T) {
	checkOpenRefuses(t, 3, map[string][]byte{
		manifestName:              []byte(`{"version":3,"checkpoint":1,"first_segment":2}`),
		segmentName(2):            append([]byte("SLWL\x03"), rawFrame(rawPayload(validIDs))...),
		checkpointSnapshotName(1): []byte("SLKB\x03\x00\x00"),
	})
}
