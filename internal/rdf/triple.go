package rdf

import "fmt"

// ID is a dictionary-encoded term identifier: the term kind in bits
// 31–30, so that rules can distinguish literals from resources without a
// dictionary lookup, and the per-kind sequence number, from 1, in bits
// 29–0:
//
//	00 — IRI
//	01 — blank node
//	10 — literal
//
// Kind bits 11 name no term. IDs sort kind first, then by sequence
// number. ID 0 is reserved as the wildcard Any, used in store match
// patterns; no term is minted as 0, since sequence numbers start at 1.
type ID uint32

const (
	// Any is the wildcard ID used in match patterns; it is never assigned
	// to a term.
	Any ID = 0

	kindShift    = 30
	kindMask  ID = 3 << kindShift
	seqMask   ID = 1<<kindShift - 1
)

// makeID composes an ID from a term kind and a sequence number below
// 2^30. A TermKind's value is its kind bits.
func makeID(kind TermKind, seq uint64) ID {
	return ID(kind)<<kindShift | ID(seq)
}

// IDFromUint64 converts a decoded integer to an ID. It reports false when
// x names no term kind: wider than 32 bits, or kind bits 11. It does not
// reject Any; callers decoding terms or triples do.
func IDFromUint64(x uint64) (ID, bool) {
	return ID(x), x < 3<<kindShift
}

// Kind returns the term kind encoded in the ID (TermIRI for kind bits 11,
// which name no term).
func (id ID) Kind() TermKind {
	if k := TermKind(id >> kindShift); k <= TermLiteral {
		return k
	}
	return TermIRI
}

// IsLiteral reports whether the ID denotes a literal term.
func (id ID) IsLiteral() bool { return id&kindMask == ID(TermLiteral)<<kindShift }

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
	return fmt.Sprintf("(%d %d %d)", t.S, t.P, t.O)
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
