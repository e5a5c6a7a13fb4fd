package rdf

import (
	"errors"
	"slices"
	"testing"
)

// TestIDOrderAcrossKinds checks that IDs sort kind first, then by
// sequence number, with each kind's last sequence number (2^30−1)
// directly below the next kind's first, and that Kind and IsLiteral
// read the kind back at both ends of the sequence range.
func TestIDOrderAcrossKinds(t *testing.T) {
	const maxSeq = 1<<30 - 1
	kinds := []TermKind{TermIRI, TermBlank, TermLiteral}
	var ids []ID
	for _, k := range kinds {
		for _, seq := range []uint64{1, 2, maxSeq - 1, maxSeq} {
			id := makeID(k, seq)
			if id.Kind() != k || id.IsLiteral() != (k == TermLiteral) {
				t.Fatalf("makeID(%v, %d) = %#x reads back as kind %v, literal %v", k, seq, uint32(id), id.Kind(), id.IsLiteral())
			}
			ids = append(ids, id)
		}
	}
	if !slices.IsSorted(ids) || slices.Contains(ids, Any) {
		t.Fatalf("IDs not in kind-then-sequence order: %#x", ids)
	}
	if makeID(TermIRI, maxSeq)+2 != makeID(TermBlank, 1) ||
		makeID(TermBlank, maxSeq)+2 != makeID(TermLiteral, 1) {
		t.Fatal("kind boundary not adjacent")
	}
}

func TestIDFromUint64RejectsNonTerms(t *testing.T) {
	for _, x := range []uint64{
		1 << 32,               // 33 bits
		1<<32 | 9,             // 33 bits, truncating onto IRI 9
		2<<62 | 9,             // a literal in the 64-bit layout
		3<<30 | 1,             // no term kind has bits 11
		1<<32 - 1,             // the widest 32-bit value, kind bits 11
		uint64(kindMask) | 42, // kind bits 11
	} {
		if id, ok := IDFromUint64(x); ok {
			t.Errorf("IDFromUint64(%#x) = %#x, true; want false", x, uint32(id))
		}
	}
	for _, k := range []TermKind{TermIRI, TermBlank, TermLiteral} {
		for _, seq := range []uint64{1, 1<<30 - 1} {
			want := makeID(k, seq)
			if id, ok := IDFromUint64(uint64(want)); !ok || id != want {
				t.Errorf("IDFromUint64(%#x) = %#x, %v", uint32(want), uint32(id), ok)
			}
		}
	}
	if id, ok := IDFromUint64(0); !ok || id != Any {
		t.Errorf("IDFromUint64(0) = %#x, %v; want Any, true", uint32(id), ok)
	}
}

// TestEncodeRefusesExhaustedKind pins the guard Encode applies before
// minting: minting 2^30 real terms is not feasible in a test, so the
// guard's predicate is checked at its boundary, where the next sequence
// number would spill into the kind bits.
func TestEncodeRefusesExhaustedKind(t *testing.T) {
	if !mintable(0) || !mintable(1<<30-2) {
		t.Fatal("mintable refuses a sequence number that fits")
	}
	if mintable(1<<30-1) || mintable(1<<30) {
		t.Fatal("mintable allows sequence number 2^30")
	}
	for _, k := range []TermKind{TermIRI, TermBlank, TermLiteral} {
		last := makeID(k, 1<<30-1)
		if last.Kind() != k || last.seq() != 1<<30-1 || makeID(k, 1<<30).seq() == 1<<30 {
			t.Fatalf("kind %v: mintable's boundary is not where the kind bits begin", k)
		}
	}
}

// TestEncodeRefusesArenaPastLimit pins the arena caps: chunkMintable at
// its boundaries, and Encode there. Filling 4 GiB of arena is not
// feasible in a test, so the stripe's or the dictionary's chunk list is
// padded with empty chunks up to the boundary. The chunk just below a
// cap must still round-trip through a table slot and a ref list; the
// chunk at a cap must be refused with errArenaLimit before Encode
// changes any state, even the annotation table.
func TestEncodeRefusesArenaPastLimit(t *testing.T) {
	if !chunkMintable(4095, 65535) || !chunkMintable(1, 0) {
		t.Fatal("chunkMintable refuses a chunk whose indexes fit")
	}
	if chunkMintable(4096, 0) || chunkMintable(1, 65536) {
		t.Fatal("chunkMintable allows local chunk 4096 or global chunk 65536")
	}
	pad := func(chunks [][]byte, n int) [][]byte {
		for len(chunks) < n {
			chunks = append(chunks, []byte{})
		}
		return chunks
	}
	for _, c := range []struct {
		local, global int // chunks held before the Encode, at least
		ok            bool
	}{{4095, 0, true}, {4096, 0, false}, {0, 65535, true}, {0, 65536, false}} {
		d := NewDictionary()
		term := NewLangLiteral("past the arena", "x-limit")
		s := &d.stripes[d.hash(term)%dictStripes]
		// An empty last chunk is full, so the record needs a new one.
		s.chunks = pad(append(s.chunks, []byte{}), c.local)
		d.chunks = pad(d.chunks, c.global)
		n, annots := d.Len(), len(*d.annots.Load())
		id, err := tryEncode(d, term)
		if !c.ok {
			if !errors.Is(err, errArenaLimit) {
				t.Fatalf("%+v: Encode = %#x, %v; want errArenaLimit", c, uint32(id), err)
			}
			if _, ok := d.Lookup(term); ok || d.Len() != n || len(*d.annots.Load()) != annots {
				t.Fatalf("%+v: a refused Encode changed the dictionary", c)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%+v: Encode: %v", c, err)
		}
		got, ok := d.Lookup(term)
		back, found := d.Term(id)
		if !ok || got != id || !found || back != term {
			t.Fatalf("%+v: Lookup = %#x, %v; Term(%#x) = %v, %v", c, uint32(got), ok, uint32(id), back, found)
		}
	}
}

// tryEncode returns Encode's panic value as an error.
func tryEncode(d *Dictionary, term Term) (id ID, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = r.(error)
		}
	}()
	return d.Encode(term), nil
}
