package rdf

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPack32RoundTripAndOrder checks that Pack32 inverts Unpack32 and
// preserves ID order over every kind at the edges of the packed
// sequence range — sequence numbers 1 and 2^30−1, and each pair of
// neighbours across a kind boundary — plus random fitting IDs.
func TestPack32RoundTripAndOrder(t *testing.T) {
	const maxSeq = 1<<30 - 1
	var ids []ID
	for _, k := range []TermKind{TermIRI, TermBlank, TermLiteral} {
		for _, seq := range []uint64{1, 2, maxSeq/2 + 1, maxSeq - 1, maxSeq} {
			ids = append(ids, makeID(k, seq))
		}
	}
	ids = append(ids, Any)
	rng := rand.New(rand.NewSource(1))
	for range 1000 {
		ids = append(ids, makeID(TermKind(rng.Intn(3)), uint64(rng.Intn(maxSeq+1))))
	}
	for _, id := range ids {
		if !Fits32(id) {
			t.Fatalf("Fits32(%#x) = false", uint64(id))
		}
		if got := Unpack32(Pack32(id)); got != id {
			t.Fatalf("Unpack32(Pack32(%#x)) = %#x", uint64(id), uint64(got))
		}
		if Pack32(id)>>30 != uint32(id.Kind()) {
			t.Fatalf("Pack32(%#x) = %#x: kind bits lost", uint64(id), Pack32(id))
		}
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		a, b := Pack32(ids[i-1]), Pack32(ids[i])
		if (ids[i-1] < ids[i]) != (a < b) || (ids[i-1] == ids[i]) != (a == b) {
			t.Fatalf("order not preserved: %#x vs %#x packs to %#x vs %#x",
				uint64(ids[i-1]), uint64(ids[i]), a, b)
		}
	}
	// Across a kind boundary the last sequence number of one kind packs
	// directly below the first of the next.
	if Pack32(makeID(TermIRI, maxSeq))+2 != Pack32(makeID(TermBlank, 1)) ||
		Pack32(makeID(TermBlank, maxSeq))+2 != Pack32(makeID(TermLiteral, 1)) {
		t.Fatal("kind boundary not adjacent in packed space")
	}
}

func TestFits32RejectsOutOfRange(t *testing.T) {
	for _, id := range []ID{
		makeID(TermIRI, 1<<30),
		makeID(TermBlank, 1<<30),
		makeID(TermLiteral, 1<<30),
		makeID(TermLiteral, 1<<40),
		ID(3<<kindShift | 1), // no term kind has bits 11
	} {
		if Fits32(id) {
			t.Errorf("Fits32(%#x) = true, want false", uint64(id))
		}
	}
}

// TestEncodeRefusesExhaustedKind pins the guard Encode applies before
// minting: minting 2^30 real terms is not feasible in a test, so the
// guard's predicate is checked at its boundary and tied to Fits32.
func TestEncodeRefusesExhaustedKind(t *testing.T) {
	if !mintable(0) || !mintable(1<<30-2) {
		t.Fatal("mintable refuses a sequence number that fits")
	}
	if mintable(1<<30-1) || mintable(1<<30) {
		t.Fatal("mintable allows sequence number 2^30")
	}
	for _, k := range []TermKind{TermIRI, TermBlank, TermLiteral} {
		if !Fits32(makeID(k, 1<<30-1)) || Fits32(makeID(k, 1<<30)) {
			t.Fatalf("kind %v: mintable and Fits32 disagree at the boundary", k)
		}
	}
}
