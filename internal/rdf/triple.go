package rdf

import "fmt"

// ID is a dictionary-encoded term identifier. The two most significant
// bits encode the term kind so that rules can distinguish literals from
// resources without a dictionary lookup:
//
//	00 — IRI
//	01 — blank node
//	10 — literal
//
// ID 0 is reserved as the wildcard Any, used in store match patterns.
type ID uint64

const (
	// Any is the wildcard ID used in match patterns; it is never assigned
	// to a term.
	Any ID = 0

	kindShift        = 62
	kindMask  ID     = 3 << kindShift
	seqMask   ID     = (1 << kindShift) - 1
	kindIRI   uint64 = 0
	kindBlank uint64 = 1
	kindLit   uint64 = 2
)

// makeID composes an ID from a term kind and a sequence number.
func makeID(kind TermKind, seq uint64) ID {
	var k uint64
	switch kind {
	case TermIRI:
		k = kindIRI
	case TermBlank:
		k = kindBlank
	case TermLiteral:
		k = kindLit
	}
	return ID(k<<kindShift | seq)
}

// packSeqBits is the width of the sequence number in a packed ID.
const packSeqBits = 30

// Fits32 reports whether id has a 32-bit packed form (see Pack32): its
// kind is one of the three term kinds and its sequence number is below
// 2^30. Every ID a Dictionary mints fits.
func Fits32(id ID) bool {
	return id < 3<<kindShift && id&seqMask < 1<<packSeqBits
}

// Pack32 returns id's packed form: the kind in bits 31–30 and the
// sequence number in bits 29–0. On IDs that fit (Fits32) it is
// injective and preserves order, so a sorted slice of packed IDs is
// sorted as IDs; on others the result is meaningless.
func Pack32(id ID) uint32 {
	return uint32(id>>32)&(3<<packSeqBits) | uint32(id)&(1<<packSeqBits-1)
}

// Unpack32 is the inverse of Pack32.
func Unpack32(x uint32) ID {
	return ID(x>>packSeqBits)<<kindShift | ID(x&(1<<packSeqBits-1))
}

// Kind returns the term kind encoded in the ID.
func (id ID) Kind() TermKind {
	switch uint64(id&kindMask) >> kindShift {
	case kindBlank:
		return TermBlank
	case kindLit:
		return TermLiteral
	default:
		return TermIRI
	}
}

// IsLiteral reports whether the ID denotes a literal term.
func (id ID) IsLiteral() bool { return id&kindMask == ID(kindLit)<<kindShift }

// IsAny reports whether the ID is the wildcard.
func (id ID) IsAny() bool { return id == Any }

// seq returns the sequence number stripped of kind bits.
func (id ID) seq() uint64 { return uint64(id & seqMask) }

// Triple is a dictionary-encoded RDF triple. This is the only
// representation the store and the inference rules operate on.
type Triple struct {
	S, P, O ID
}

// T is shorthand for constructing a Triple.
func T(s, p, o ID) Triple { return Triple{S: s, P: p, O: o} }

// String renders the raw IDs; use Dictionary.Format for readable output.
func (t Triple) String() string {
	return fmt.Sprintf("(%d %d %d)", uint64(t.S), uint64(t.P), uint64(t.O))
}

// Matches reports whether the triple matches a pattern in which Any acts
// as a wildcard for any component.
func (t Triple) Matches(pattern Triple) bool {
	return (pattern.S == Any || pattern.S == t.S) &&
		(pattern.P == Any || pattern.P == t.P) &&
		(pattern.O == Any || pattern.O == t.O)
}

// Valid reports whether the triple could be a well-formed RDF statement at
// the ID level: no wildcard components, no literal subject or predicate,
// and the predicate is an IRI.
func (t Triple) Valid() bool {
	if t.S == Any || t.P == Any || t.O == Any {
		return false
	}
	if t.S.IsLiteral() {
		return false
	}
	if t.P.Kind() != TermIRI {
		return false
	}
	return true
}
