package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

// build populates a dictionary and store with a mixed knowledge base,
// about a third of it explicit.
func build(n int, seed int64) (*rdf.Dictionary, *store.Store) {
	rng := rand.New(rand.NewSource(seed))
	dict := rdf.NewDictionary()
	st := store.New()
	for i := 0; i < n; i++ {
		s := dict.Encode(rdf.NewIRI(fmt.Sprintf("http://e/s%d", rng.Intn(n/2+1))))
		p := dict.Encode(rdf.NewIRI(fmt.Sprintf("http://e/p%d", rng.Intn(7))))
		var o rdf.ID
		switch rng.Intn(4) {
		case 0:
			o = dict.Encode(rdf.NewLiteral(fmt.Sprintf("value %d", i)))
		case 1:
			o = dict.Encode(rdf.NewLangLiteral(fmt.Sprintf("valeur %d", i), "fr"))
		case 2:
			o = dict.Encode(rdf.NewBlank(fmt.Sprintf("b%d", rng.Intn(20))))
		default:
			o = dict.Encode(rdf.NewIRI(fmt.Sprintf("http://e/o%d", rng.Intn(n/2+1))))
		}
		if t := rdf.T(s, p, o); rng.Intn(3) == 0 {
			st.AssertBatch([]rdf.Triple{t})
		} else {
			st.Add(t)
		}
	}
	return dict, st
}

func TestRoundTrip(t *testing.T) {
	dict, st := build(500, 1)
	var buf bytes.Buffer
	if err := Save(&buf, dict, st); err != nil {
		t.Fatal(err)
	}
	dict2, st2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dict2.Len() != dict.Len() {
		t.Fatalf("dictionary size %d, want %d", dict2.Len(), dict.Len())
	}
	if st2.Len() != st.Len() {
		t.Fatalf("store size %d, want %d", st2.Len(), st.Len())
	}
	// Every triple present with identical IDs and explicitness, and
	// decodable to the same statements.
	explicit := 0
	st.ForEach(func(tr rdf.Triple) bool {
		if !st2.Contains(tr) {
			t.Fatalf("loaded store missing %v", tr)
		}
		if st2.Explicit(tr) != st.Explicit(tr) {
			t.Fatalf("%v loaded with Explicit %v, saved with %v", tr, st2.Explicit(tr), st.Explicit(tr))
		}
		if st.Explicit(tr) {
			explicit++
		}
		orig, ok1 := dict.DecodeTriple(tr)
		back, ok2 := dict2.DecodeTriple(tr)
		if !ok1 || !ok2 || orig != back {
			t.Fatalf("decode mismatch for %v: %v vs %v", tr, orig, back)
		}
		return true
	})
	if explicit == 0 || explicit == st.Len() {
		t.Fatalf("%d of %d triples explicit: the round trip does not test the bit", explicit, st.Len())
	}
}

// TestRoundTripKeepsFlips saves a store whose explicitness changed after
// the first write — an inferred triple promoted by an assert, an
// explicit one demoted — from the store and from a view frozen before a
// later write, and checks both reload with every bit as saved.
func TestRoundTripKeepsFlips(t *testing.T) {
	dict := rdf.NewDictionary()
	id := func(s string) rdf.ID { return dict.Encode(rdf.NewIRI("http://e/" + s)) }
	a, b, c, d := rdf.T(id("a"), rdf.IDType, id("C")), rdf.T(id("b"), rdf.IDType, id("C")), rdf.T(id("c"), rdf.IDType, id("C")), rdf.T(id("d"), rdf.IDType, id("C"))
	st := store.New()
	st.AddBatch([]rdf.Triple{a, b})
	st.AssertBatch([]rdf.Triple{b, c, d}) // promotes b
	st.Demote([]rdf.Triple{c})
	v := st.Freeze()
	st.Demote([]rdf.Triple{d})
	for name, save := range map[string]func(*bytes.Buffer) error{
		"view":  func(buf *bytes.Buffer) error { return SaveFrom(buf, dict, v) },
		"store": func(buf *bytes.Buffer) error { return Save(buf, dict, st) },
	} {
		want := map[rdf.Triple]bool{a: false, b: true, c: false, d: name == "view"}
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		_, back, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for tr, explicit := range want {
			if !back.Contains(tr) || back.Explicit(tr) != explicit {
				t.Errorf("%s: %v reloads present %v, explicit %v; want explicit %v", name, tr, back.Contains(tr), back.Explicit(tr), explicit)
			}
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	dict := rdf.NewDictionary()
	st := store.New()
	var buf bytes.Buffer
	if err := Save(&buf, dict, st); err != nil {
		t.Fatal(err)
	}
	dict2, st2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 0 || dict2.Len() != dict.Len() {
		t.Fatalf("empty round trip: %d triples, %d terms", st2.Len(), dict2.Len())
	}
}

func TestIDsPreservedExactly(t *testing.T) {
	dict, st := build(200, 7)
	// Remember an arbitrary term's ID.
	id := dict.Encode(rdf.NewIRI("http://e/landmark"))
	st.Add(rdf.T(id, rdf.IDType, rdf.IDClass))
	var buf bytes.Buffer
	if err := Save(&buf, dict, st); err != nil {
		t.Fatal(err)
	}
	dict2, st2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	id2, ok := dict2.Lookup(rdf.NewIRI("http://e/landmark"))
	if !ok || id2 != id {
		t.Fatalf("landmark ID changed: %d -> %d", id, id2)
	}
	if !st2.Contains(rdf.T(id, rdf.IDType, rdf.IDClass)) {
		t.Fatal("triple with landmark ID missing")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE\x01"),
		[]byte("SLKB\x63"),            // wrong version
		append(magic[:], wal.Version), // truncated after the version
	}
	for i, data := range cases {
		if _, _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("case %d: err = %v, want ErrBadSnapshot", i, err)
		}
	}
}

// notTerm are encoded values that name no term: 33 bits wide (which
// would truncate onto IRI 5), a literal in the 64-bit layout of format
// version 1 (onto IRI 9), the widest 10-byte uvarint, and kind bits 11.
var notTerm = []uint64{1<<32 | 5, 2<<62 | 9, 1<<64 - 1, 3<<30 | 5}

// validIDs are rawSnapshot's IDs naming terms: the IRI "x" as a fresh
// dictionary encodes it, then the triple (1, rdf:type, rdfs:Class).
var validIDs = [4]uint64{uint64(rdf.NewDictionary().EncodeIRI("x")), uint64(rdf.IDType), 1, uint64(rdf.IDClass)}

// rawSnapshot hand-builds a snapshot of format version v from raw
// integers: a header counting one term and one triple, then one frame
// with a valid CRC whose record of operation op carries the IRI term
// "x" with ID ids[0] and the triple of predicate ids[1], subject ids[2]
// and object ids[3].
func rawSnapshot(v byte, op wal.Op, ids [4]uint64) []byte {
	b := binary.LittleEndian.AppendUint64(append(magic[:], v), 1)
	b = binary.LittleEndian.AppendUint64(b, 1)
	payload := binary.AppendUvarint([]byte{byte(op), 1}, ids[0])
	payload = append(payload, 1, 'x', 0, 0, 1)
	for _, x := range []uint64{ids[2], ids[1], ids[3]} {
		payload = binary.AppendUvarint(payload, x)
	}
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// TestLoadRejectsOutOfRangeIDs puts each value that names no term in
// the term entry and in each triple position, under a valid CRC. Load
// must report corruption, not truncate the value onto another ID.
func TestLoadRejectsOutOfRangeIDs(t *testing.T) {
	if _, st, err := Load(bytes.NewReader(rawSnapshot(wal.Version, wal.OpInfer, validIDs))); err != nil || st.Len() != 1 {
		t.Fatalf("Load on valid raw IDs: %v", err)
	}
	for _, x := range notTerm {
		for pos, name := range []string{"term", "predicate", "subject", "object"} {
			ids := validIDs
			ids[pos] = x
			_, _, err := Load(bytes.NewReader(rawSnapshot(wal.Version, wal.OpInfer, ids)))
			if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "out-of-range") {
				t.Errorf("%s %#x: err = %v, want ErrBadSnapshot for an out-of-range ID", name, x, err)
			}
		}
	}
}

// TestLoadRefusesBadRecords checks the refusals a frame's CRC cannot
// make: well-framed records that are not a snapshot's.
func TestLoadRefusesBadRecords(t *testing.T) {
	explicit := rawSnapshot(wal.Version, wal.OpAssert, validIDs)
	if _, st, err := Load(bytes.NewReader(explicit)); err != nil || !st.Explicit(rdf.T(1, rdf.IDType, rdf.IDClass)) {
		t.Fatalf("Load on an explicit raw triple: %v", err)
	}
	outOfOrder := validIDs
	outOfOrder[0]++
	moreTriples := append([]byte(nil), explicit...)
	moreTriples[headerLen-8]++
	fewerTerms := append([]byte(nil), explicit...)
	fewerTerms[headerLen-16]--
	for name, data := range map[string][]byte{
		"retract record":    rawSnapshot(wal.Version, wal.OpRetract, validIDs),
		"term out of order": rawSnapshot(wal.Version, wal.OpAssert, outOfOrder),
		"triple total":      moreTriples,
		"term total":        fewerTerms,
		"trailing byte":     append(append([]byte(nil), explicit...), 0),
		"trailing frame":    append(append([]byte(nil), explicit...), explicit[headerLen:]...),
	} {
		if _, _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// TestLoadRefusesVersion1 checks that a version-1 snapshot, which held
// 64-bit IDs, is refused with an error saying so, not decoded.
func TestLoadRefusesVersion1(t *testing.T) {
	_, _, err := Load(bytes.NewReader(rawSnapshot(1, wal.OpInfer, [4]uint64{2<<62 | 1, 1, 1, 2<<62 | 1})))
	checkRefusal(t, err, "version 1")
}

// TestLoadRefusesVersion2 checks that a version-2 snapshot, which
// carried no explicit bit, is refused with an error saying so: loading
// it would make every triple inferred, and none retractable.
func TestLoadRefusesVersion2(t *testing.T) {
	_, _, err := Load(bytes.NewReader(rawSnapshot(2, wal.OpInfer, validIDs)))
	checkRefusal(t, err, "version 2")
}

// TestLoadRefusesVersion3 loads the checkpoint of testdata/v3kb, a
// snapshot that a release of format version 3 wrote with its own codec
// and no CRC, and checks it is refused with an error saying so.
func TestLoadRefusesVersion3(t *testing.T) {
	_, _, err := Load(bytes.NewReader(v3Snapshot(t)))
	checkRefusal(t, err, "version 3")
}

// v3Snapshot reads the version-3 snapshot of testdata/v3kb.
func v3Snapshot(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "v3kb", "checkpoint-00000001.slkb"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkRefusal fails unless err is ErrBadSnapshot naming the version
// and telling the reader to export and reload the data.
func checkRefusal(t *testing.T, err error, version string) {
	t.Helper()
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Load = %v, want ErrBadSnapshot", err)
	}
	for _, s := range []string{version, "export", "reload"} {
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("error %q does not mention %q", err, s)
		}
	}
}

// TestLoadRefusesEveryCorruption flips each byte of a small snapshot
// in three ways — its low bit, its high bit, all its bits — and cuts it
// at every length. Load must refuse every one: a flipped byte inside a
// string once loaded "Alice" as "Mlice" without an error.
func TestLoadRefusesEveryCorruption(t *testing.T) {
	dict, st := build(100, 3)
	var buf bytes.Buffer
	if err := Save(&buf, dict, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	bad := make([]byte, len(full))
	for i := range full {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			copy(bad, full)
			bad[i] ^= mask
			if _, _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("byte %d of %d flipped by %#x: err = %v, want ErrBadSnapshot", i, len(full), mask, err)
			}
		}
	}
	for n := range full {
		if _, _, err := Load(bytes.NewReader(full[:n])); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("cut to %d of %d bytes: err = %v, want ErrBadSnapshot", n, len(full), err)
		}
	}
}

// Property: save/load round trip preserves the knowledge base for
// arbitrary seeds and sizes.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		dict, st := build(int(n)+10, seed)
		var buf bytes.Buffer
		if err := Save(&buf, dict, st); err != nil {
			return false
		}
		dict2, st2, err := Load(&buf)
		if err != nil {
			return false
		}
		if st2.Len() != st.Len() || dict2.Len() != dict.Len() {
			return false
		}
		ok := true
		st.ForEach(func(tr rdf.Triple) bool {
			if !st2.Contains(tr) || st2.Explicit(tr) != st.Explicit(tr) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestSavePropagatesWriteErrors(t *testing.T) {
	dict, st := build(5000, 2)
	if err := Save(&failingWriter{n: 64}, dict, st); err == nil {
		t.Fatal("write error swallowed")
	}
}
