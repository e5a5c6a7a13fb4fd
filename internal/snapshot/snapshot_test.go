package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
	"repro/internal/store"
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
		[]byte("SLKB\x63"),        // wrong version
		append(magic[:], Version), // truncated after header
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

// rawSnapshot hand-builds a snapshot of format version v from raw
// integers: one IRI term "x" with ID ids[0], then one triple group of
// predicate ids[1] holding the inferred pair (ids[2], ids[3]). From
// version 3 the subject is written shifted left by one, above the
// explicit bit; a subject too wide to shift is written as it is, which
// decodes to an ID as far out of range.
func rawSnapshot(v byte, ids [4]uint64) []byte {
	if v >= 3 && ids[2] < 1<<63 {
		ids[2] <<= 1
	}
	b := binary.AppendUvarint(append(magic[:], v, 1, byte(rdf.TermIRI)), ids[0])
	b = append(b, 1, 'x', 0, 0, 1)
	for i, x := range ids[1:] {
		b = binary.AppendUvarint(b, x)
		if i == 0 {
			b = append(b, 1) // the group's pair count
		}
	}
	return b
}

// TestLoadRejectsOutOfRangeIDs puts each value that names no term in
// the dictionary section and in each triple position. Load must report
// corruption, not truncate the value onto another ID.
func TestLoadRejectsOutOfRangeIDs(t *testing.T) {
	valid := [4]uint64{uint64(rdf.NewDictionary().EncodeIRI("x")), uint64(rdf.IDType), 1, uint64(rdf.IDClass)}
	if _, st, err := Load(bytes.NewReader(rawSnapshot(Version, valid))); err != nil || st.Len() != 1 {
		t.Fatalf("Load on valid raw IDs: %v", err)
	}
	for _, x := range notTerm {
		for pos, name := range []string{"term", "predicate", "subject", "object"} {
			ids := valid
			ids[pos] = x
			_, _, err := Load(bytes.NewReader(rawSnapshot(Version, ids)))
			if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("%s %#x: err = %v, want ErrBadSnapshot for an out-of-range ID", name, x, err)
			}
		}
	}
}

// TestLoadRefusesVersion1 checks that a version-1 snapshot, which held
// 64-bit IDs, is refused with an error saying so, not decoded.
func TestLoadRefusesVersion1(t *testing.T) {
	_, _, err := Load(bytes.NewReader(rawSnapshot(1, [4]uint64{2<<62 | 1, 1, 1, 2<<62 | 1})))
	checkRefusal(t, err, "version 1")
}

// TestLoadRefusesVersion2 checks that a version-2 snapshot, which
// carried no explicit bit, is refused with an error saying so: loading
// it would make every triple inferred, and none retractable.
func TestLoadRefusesVersion2(t *testing.T) {
	valid := [4]uint64{uint64(rdf.NewDictionary().EncodeIRI("x")), uint64(rdf.IDType), 1, uint64(rdf.IDClass)}
	_, _, err := Load(bytes.NewReader(rawSnapshot(2, valid)))
	checkRefusal(t, err, "version 2")
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

func TestLoadRejectsTruncation(t *testing.T) {
	dict, st := build(100, 3)
	var buf bytes.Buffer
	if err := Save(&buf, dict, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop the snapshot at various points; every prefix must error, not
	// panic or silently succeed.
	for _, cut := range []int{6, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
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
