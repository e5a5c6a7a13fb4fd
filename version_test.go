package slider

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// TestOpenRefusesVersion1Directory opens a knowledge base that a release
// of format version 1 wrote (testdata/v1kb: the manifest, a checkpoint
// whose snapshot and explicit set hold 64-bit IDs, and a segment with
// two records after it) and checks that Open fails naming the version,
// and that every file is byte-identical afterwards: the refusal comes
// before replay, which would cut a segment of another version as torn.
func TestOpenRefusesVersion1Directory(t *testing.T) {
	checkOpenRefusesDirectory(t, "v1kb", "version 1")
}

// TestOpenRefusesVersion2Directory does the same for a knowledge base of
// format version 2 (testdata/v2kb: a checkpoint whose explicit triples
// sit in a sidecar file beside a snapshot without explicit bits, and a
// segment with an assert and a retract record after it). Loading it
// would make every checkpointed triple inferred, so none could be
// retracted; the refusal must also leave the sidecar, which the current
// format no longer names, in place.
func TestOpenRefusesVersion2Directory(t *testing.T) {
	checkOpenRefusesDirectory(t, "v2kb", "version 2")
}

// TestOpenRefusesVersion3Directory does the same for a knowledge base of
// format version 3 (testdata/v3kb: a checkpoint whose snapshot has its
// own codec and no CRC, and a segment with an assert and a retract
// record after it).
func TestOpenRefusesVersion3Directory(t *testing.T) {
	checkOpenRefusesDirectory(t, "v3kb", "version 3")
}

// checkOpenRefusesDirectory copies the fixture testdata/<fixture> — a
// manifest, a segment and the checkpoint's files — to a fresh directory,
// and checks that Open refuses it with ErrCorrupt naming the version and
// leaves every file as it was, creating none but the lock.
func checkOpenRefusesDirectory(t *testing.T, fixture, version string) {
	t.Helper()
	src := filepath.Join("testdata", fixture)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		want[e.Name()] = b
	}
	if len(want) < 3 {
		t.Fatalf("fixture holds %d files, want a manifest, a segment and a checkpoint", len(want))
	}

	r, err := Open(dir, RDFS, WithWorkers(1))
	if err == nil {
		r.Close(context.Background())
		t.Fatalf("Open accepted a %s knowledge base", version)
	}
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), version) {
		t.Fatalf("Open = %v, want ErrCorrupt naming %s", err, version)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range after {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := want[e.Name()]; ok && !bytes.Equal(b, w) {
			t.Errorf("%s changed by the refused Open", e.Name())
		} else if !ok && e.Name() != "LOCK" {
			t.Errorf("the refused Open created %s", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("the refused Open removed %s", name)
	}
}
