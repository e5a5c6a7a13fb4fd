// Package snapshot persists a reasoner's knowledge base — the dictionary
// and the (materialised) triple store — in a compact binary format, so a
// closed ontology can be reloaded instantly as background knowledge
// instead of being re-parsed and re-inferred.
//
// Format (little-endian, varint-coded):
//
//	magic "SLKB" | version u8
//	dictionary: count, then per term: kind u8, value, lang, datatype
//	            (strings as varint length + bytes; terms appear in
//	            sequence order per kind so IDs reload identically)
//	triples:    predicate-grouped: #groups, then per group the predicate
//	            ID, #pairs, and the pairs: subject ID shifted left by
//	            one with the explicit bit below it, then object ID
//
// IDs are the 32-bit rdf.ID values, preserved exactly, so snapshots
// interoperate with code that stored IDs elsewhere. The explicit bit
// says the triple was asserted rather than inferred, so a reloaded
// knowledge base can still retract it.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/rdf"
	"repro/internal/store"
)

var magic = [4]byte{'S', 'L', 'K', 'B'}

// Version of the snapshot format. Version 1 wrote 64-bit IDs; version 2
// carried no explicit bit.
const Version = 3

// loadChunk bounds the batches Load inserts a predicate group in — one
// of its explicit triples, one of its inferred ones: each becomes one
// store run, and the store merges them in size tiers.
const loadChunk = 1 << 16

// ErrBadSnapshot reports a malformed or truncated snapshot.
var ErrBadSnapshot = errors.New("snapshot: malformed snapshot")

// TermSource is the dictionary side of a snapshot: anything that can
// enumerate (ID, Term) pairs in the kind-then-sequence order Load
// expects, and say up front how many there are — the count lets the
// writer stream terms straight to the output instead of buffering the
// whole dictionary (a GC-visible allocation spike at the worst moment
// for a checkpoint racing live writers). Len and ForEach must agree;
// for a live *rdf.Dictionary that means no concurrent registration
// (quiescence), for an *rdf.DictView it holds by construction.
type TermSource interface {
	Len() int
	ForEach(f func(rdf.ID, rdf.Term) bool)
}

// TripleSource is the store side of a snapshot: predicate-grouped
// iteration, with each pair's explicitness, and stable per-predicate
// counts. A *store.View is one immutable root of the store, consistent
// under concurrent writers.
type TripleSource interface {
	Predicates() []rdf.ID
	PredicateLen(p rdf.ID) int
	ForEachPair(p rdf.ID, f func(s, o rdf.ID, explicit bool) bool)
}

// Save writes the dictionary and the store's current contents to w.
func Save(w io.Writer, dict *rdf.Dictionary, st *store.Store) error {
	return SaveFrom(w, dict, st.Freeze())
}

// SaveFrom writes a snapshot from arbitrary term and triple sources.
// Streaming from a store.View and an rdf.DictView captures a consistent
// knowledge base while the live structures continue to take writes.
func SaveFrom(w io.Writer, dict TermSource, st TripleSource) error {
	// A live dictionary can grow between the Len and ForEach passes; pin
	// it to a prefix-stable view so a concurrent registration cannot
	// fail the save with a count mismatch.
	if d, ok := dict.(*rdf.Dictionary); ok {
		dict = d.ViewAt(d.KindCounts())
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(Version); err != nil {
		return err
	}
	if err := saveDictionary(bw, dict); err != nil {
		return err
	}
	if err := saveTriples(bw, st); err != nil {
		return err
	}
	return bw.Flush()
}

func putUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func putString(w *bufio.Writer, s string) error {
	if err := putUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

// saveDictionary walks IDs in sequence order per kind so that re-encoding
// on load reproduces identical IDs. Terms stream straight to the writer.
func saveDictionary(w *bufio.Writer, dict TermSource) error {
	n := dict.Len()
	if err := putUvarint(w, uint64(n)); err != nil {
		return err
	}
	written := 0
	var werr error
	dict.ForEach(func(id rdf.ID, t rdf.Term) bool {
		if werr = w.WriteByte(byte(t.Kind)); werr != nil {
			return false
		}
		if werr = putUvarint(w, uint64(id)); werr != nil {
			return false
		}
		if werr = putString(w, t.Value); werr != nil {
			return false
		}
		if werr = putString(w, t.Lang); werr != nil {
			return false
		}
		if werr = putString(w, t.Datatype); werr != nil {
			return false
		}
		written++
		return true
	})
	if werr != nil {
		return werr
	}
	if written != n {
		return fmt.Errorf("snapshot: dictionary yielded %d terms, source declared %d", written, n)
	}
	return nil
}

func saveTriples(w *bufio.Writer, st TripleSource) error {
	preds := st.Predicates()
	if err := putUvarint(w, uint64(len(preds))); err != nil {
		return err
	}
	for _, p := range preds {
		if err := putUvarint(w, uint64(p)); err != nil {
			return err
		}
		if err := putUvarint(w, uint64(st.PredicateLen(p))); err != nil {
			return err
		}
		var werr error
		st.ForEachPair(p, func(s, o rdf.ID, explicit bool) bool {
			x := uint64(s) << 1
			if explicit {
				x |= 1
			}
			if werr = putUvarint(w, x); werr != nil {
				return false
			}
			if werr = putUvarint(w, uint64(o)); werr != nil {
				return false
			}
			return true
		})
		if werr != nil {
			return werr
		}
	}
	return nil
}

// Load reads a snapshot from r, returning a freshly populated dictionary
// and store, whose explicit triples are explicit again. It refuses any
// other format version, such as version 2, which carried no explicit
// bit, and any ID that names no term.
func Load(r io.Reader) (*rdf.Dictionary, *store.Store, error) {
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: missing header", ErrBadSnapshot)
	}
	if [4]byte{hdr[0], hdr[1], hdr[2], hdr[3]} != magic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if hdr[4] != Version {
		return nil, nil, fmt.Errorf("%w: format version %d, not %d: export the data to N-Triples with the release that wrote it and reload it", ErrBadSnapshot, hdr[4], Version)
	}
	dict, err := loadDictionary(br)
	if err != nil {
		return nil, nil, err
	}
	st, err := loadTriples(br)
	if err != nil {
		return nil, nil, err
	}
	return dict, st, nil
}

func getString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("%w: truncated string", ErrBadSnapshot)
	}
	if n > 1<<24 {
		return "", fmt.Errorf("%w: string too long", ErrBadSnapshot)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("%w: truncated string body", ErrBadSnapshot)
	}
	return string(buf), nil
}

// getID reads an ID, refusing a value that names no term: wider than an
// ID or of kind bits 11 (rdf.IDFromUint64), or the wildcard.
func getID(br *bufio.Reader, what string) (rdf.ID, error) {
	x, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("%w: truncated %s", ErrBadSnapshot, what)
	}
	return checkID(x, what)
}

// checkID converts x to an ID as getID does.
func checkID(x uint64, what string) (rdf.ID, error) {
	id, ok := rdf.IDFromUint64(x)
	if !ok || id == rdf.Any {
		return 0, fmt.Errorf("%w: %s ID %#x out of range", ErrBadSnapshot, what, x)
	}
	return id, nil
}

func loadDictionary(br *bufio.Reader) (*rdf.Dictionary, error) {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated dictionary", ErrBadSnapshot)
	}
	dict := rdf.NewDictionary()
	for i := uint64(0); i < count; i++ {
		kindByte, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated term", ErrBadSnapshot)
		}
		if kindByte > byte(rdf.TermLiteral) {
			return nil, fmt.Errorf("%w: bad term kind %d", ErrBadSnapshot, kindByte)
		}
		wantID, err := getID(br, "term")
		if err != nil {
			return nil, err
		}
		value, err := getString(br)
		if err != nil {
			return nil, err
		}
		lang, err := getString(br)
		if err != nil {
			return nil, err
		}
		datatype, err := getString(br)
		if err != nil {
			return nil, err
		}
		term := rdf.Term{Kind: rdf.TermKind(kindByte), Value: value, Lang: lang, Datatype: datatype}
		got := dict.Encode(term)
		if got != wantID {
			return nil, fmt.Errorf("%w: term %q loaded with ID %d, snapshot says %d (out-of-order dictionary)",
				ErrBadSnapshot, term, got, wantID)
		}
	}
	return dict, nil
}

func loadTriples(br *bufio.Reader) (*store.Store, error) {
	groups, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated triple section", ErrBadSnapshot)
	}
	st := store.New()
	asserted := make([]rdf.Triple, 0, loadChunk)
	inferred := make([]rdf.Triple, 0, loadChunk)
	for g := uint64(0); g < groups; g++ {
		p, err := getID(br, "predicate")
		if err != nil {
			return nil, err
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated group size", ErrBadSnapshot)
		}
		for i := uint64(0); i < n; i++ {
			x, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: truncated subject", ErrBadSnapshot)
			}
			s, err := checkID(x>>1, "subject")
			if err != nil {
				return nil, err
			}
			o, err := getID(br, "object")
			if err != nil {
				return nil, err
			}
			if x&1 == 0 {
				if inferred = append(inferred, rdf.T(s, p, o)); len(inferred) == loadChunk {
					st.AddBatch(inferred)
					inferred = inferred[:0]
				}
			} else if asserted = append(asserted, rdf.T(s, p, o)); len(asserted) == loadChunk {
				st.AssertBatch(asserted)
				asserted = asserted[:0]
			}
		}
		st.AddBatch(inferred)
		st.AssertBatch(asserted)
		inferred, asserted = inferred[:0], asserted[:0]
	}
	return st, nil
}
