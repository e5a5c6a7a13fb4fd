package snapshot

import (
	"bytes"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

// resave writes a loaded knowledge base back out through a frozen view,
// which yields each predicate's pairs in (subject, object) order: the
// canonical bytes of its content.
func resave(t testing.TB, dict *rdf.Dictionary, st *store.Store) []byte {
	t.Helper()
	v := st.Freeze()
	defer v.Release()
	var buf bytes.Buffer
	if err := SaveFrom(&buf, dict, v); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	return buf.Bytes()
}

// FuzzSnapshotLoad feeds arbitrary bytes to Load. Invariants under
// fuzzing:
//
//   - Load never panics, whatever the bytes are.
//   - A snapshot Load accepts re-saves to bytes that Load accepts with
//     the same terms and triples, each as explicit as before, and that
//     re-save to themselves. The
//     re-save is compared with its own reload, not with the input: an
//     accepted snapshot may list its pairs in any order, not only in
//     the canonical (subject, object) order a view writes.
//   - A canonical snapshot (the valid seed) re-saves to its own bytes.
func FuzzSnapshotLoad(f *testing.F) {
	dict, st := build(40, 1)
	valid := resave(f, dict, st)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                                           // truncated
	f.Add([]byte("SLKB\x01"))                                                             // format version 1 header
	f.Add(rawSnapshot(1, wal.OpInfer, [4]uint64{2<<62 | 1, 1, 1, 2<<62 | 1}))             // version 1, 64-bit IDs
	f.Add(rawSnapshot(2, wal.OpInfer, validIDs))                                          // version 2, no explicit bit
	f.Add(rawSnapshot(wal.Version, wal.OpInfer, [4]uint64{validIDs[0], 1, 1, 1<<32 | 5})) // a 33-bit ID
	f.Add(rawSnapshot(wal.Version, wal.OpInfer, [4]uint64{validIDs[0], 1, 3<<30 | 5, 1})) // a kind-11 ID
	f.Add(rawSnapshot(wal.Version, wal.OpRetract, validIDs))                              // a retract record
	f.Add(rawSnapshot(wal.Version, wal.OpAssert, validIDs))                               // an explicit triple
	f.Add(v3Snapshot(f))                                                                  // version 3, its own codec
	f.Add(append(append([]byte(nil), valid...), valid[headerLen:]...))                    // every record twice

	f.Fuzz(func(t *testing.T, data []byte) {
		dict, st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		b1 := resave(t, dict, st)
		if bytes.Equal(data, valid) && !bytes.Equal(b1, valid) {
			t.Fatal("a canonical snapshot re-saved to different bytes")
		}
		dict2, st2, err := Load(bytes.NewReader(b1))
		if err != nil {
			t.Fatalf("re-saved snapshot refused: %v", err)
		}
		if dict2.Len() != dict.Len() || st2.Len() != st.Len() {
			t.Fatalf("reload holds %d terms and %d triples, want %d and %d", dict2.Len(), st2.Len(), dict.Len(), st.Len())
		}
		st.ForEach(func(tr rdf.Triple) bool {
			if !st2.Contains(tr) {
				t.Fatalf("reload lost %v", tr)
			}
			if st2.Explicit(tr) != st.Explicit(tr) {
				t.Fatalf("reload turned %v from explicit %v to %v", tr, st.Explicit(tr), st2.Explicit(tr))
			}
			return true
		})
		if b2 := resave(t, dict2, st2); !bytes.Equal(b2, b1) {
			t.Fatal("re-saved snapshot does not re-save to itself")
		}
	})
}
