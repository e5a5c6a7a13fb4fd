package rdf

import (
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
