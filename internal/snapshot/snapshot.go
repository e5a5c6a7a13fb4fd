// Package snapshot persists a reasoner's knowledge base — the dictionary
// and the (materialised) triple store — so a closed ontology can be
// reloaded instantly instead of being re-parsed and re-inferred.
//
// A snapshot is written in the write-ahead log's own CRC-checked frames
// (internal/wal), under the log's format version:
//
//	magic "SLKB" | version u8 | #terms u64 | #triples u64 (little-endian)
//	term records:   OpAssert records carrying only terms, in
//	                kind-then-sequence order so IDs reload identically
//	triple records: per predicate, OpAssert records of its explicit
//	                triples and OpInfer records of its inferred ones,
//	                at most recordTriples triples each
//
// IDs are the 32-bit rdf.ID values, preserved exactly, so snapshots
// interoperate with code that stored IDs elsewhere. An explicit triple
// was asserted rather than inferred, so a reloaded knowledge base can
// still retract it.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/wal"
)

var magic = [4]byte{'S', 'L', 'K', 'B'}

// headerLen is the magic, the version byte and the two totals.
const headerLen = len(magic) + 1 + 8 + 8

// recordTriples bounds the triples of one record. Load inserts each
// record as one batch, and so one store run; the store merges them in
// size tiers.
const recordTriples = 1 << 16

// recordTermBytes bounds the term strings of one term record.
const recordTermBytes = 1 << 20

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

// frameWriter writes records to w as frames, keeping the first error.
type frameWriter struct {
	w     io.Writer
	buf   []byte
	err   error
	terms int
	pairs int
}

func (fw *frameWriter) write(rec wal.Record) {
	if fw.err != nil || len(rec.Terms)+len(rec.Triples) == 0 {
		return
	}
	var frame []byte
	frame, fw.buf = wal.EncodeFrame(fw.buf, rec)
	_, fw.err = fw.w.Write(frame)
	fw.terms += len(rec.Terms)
	fw.pairs += len(rec.Triples)
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
	preds := st.Predicates()
	nTerms, nTriples := dict.Len(), 0
	for _, p := range preds {
		nTriples += st.PredicateLen(p)
	}
	hdr := append(magic[:], wal.Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(nTerms))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(nTriples))
	fw := &frameWriter{w: w}
	if _, fw.err = w.Write(hdr); fw.err != nil {
		return fw.err
	}

	terms := wal.Record{Op: wal.OpAssert}
	size := 0
	dict.ForEach(func(id rdf.ID, t rdf.Term) bool {
		terms.Terms = append(terms.Terms, wal.TermEntry{ID: id, Term: t})
		if size += len(t.Value) + len(t.Lang) + len(t.Datatype); size >= recordTermBytes {
			fw.write(terms)
			terms.Terms, size = terms.Terms[:0], 0
		}
		return fw.err == nil
	})
	fw.write(terms)

	asserted := wal.Record{Op: wal.OpAssert, Triples: make([]rdf.Triple, 0, recordTriples)}
	inferred := wal.Record{Op: wal.OpInfer, Triples: make([]rdf.Triple, 0, recordTriples)}
	for _, p := range preds {
		st.ForEachPair(p, func(s, o rdf.ID, explicit bool) bool {
			rec := &inferred
			if explicit {
				rec = &asserted
			}
			if rec.Triples = append(rec.Triples, rdf.T(s, p, o)); len(rec.Triples) == recordTriples {
				fw.write(*rec)
				rec.Triples = rec.Triples[:0]
			}
			return fw.err == nil
		})
		fw.write(inferred)
		fw.write(asserted)
		inferred.Triples, asserted.Triples = inferred.Triples[:0], asserted.Triples[:0]
	}
	if fw.err != nil {
		return fw.err
	}
	if fw.terms != nTerms || fw.pairs != nTriples {
		return fmt.Errorf("snapshot: sources yielded %d terms and %d triples, declared %d and %d",
			fw.terms, fw.pairs, nTerms, nTriples)
	}
	return nil
}

// Load reads a snapshot from r, returning a freshly populated dictionary
// and store, whose explicit triples are explicit again. It refuses any
// other format version, a frame the log would refuse, a retract record,
// totals that do not match the records, and bytes after the last frame.
func Load(r io.Reader) (*rdf.Dictionary, *store.Store, error) {
	br := bufio.NewReader(r)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:len(magic)+1]); err != nil {
		return nil, nil, fmt.Errorf("%w: missing header", ErrBadSnapshot)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := hdr[4]; v != wal.Version {
		return nil, nil, fmt.Errorf("%w: format version %d, not %d: export the data to N-Triples with the release that wrote it and reload it", ErrBadSnapshot, v, wal.Version)
	}
	if _, err := io.ReadFull(br, hdr[len(magic)+1:]); err != nil {
		return nil, nil, fmt.Errorf("%w: missing header", ErrBadSnapshot)
	}
	totals := hdr[len(magic)+1:]
	wantTerms := binary.LittleEndian.Uint64(totals)
	wantTriples := binary.LittleEndian.Uint64(totals[8:])

	dict := rdf.NewDictionary()
	st := store.New()
	var terms, triples uint64
	var buf []byte
	for {
		rec, grown, err := wal.ReadFrame(br, buf)
		buf = grown
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		if err := rec.RegisterTerms(dict); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		switch rec.Op {
		case wal.OpAssert:
			st.AssertBatch(rec.Triples)
		case wal.OpInfer:
			st.AddBatch(rec.Triples)
		default:
			return nil, nil, fmt.Errorf("%w: record op %d", ErrBadSnapshot, rec.Op)
		}
		terms += uint64(len(rec.Terms))
		triples += uint64(len(rec.Triples))
	}
	if terms != wantTerms || triples != wantTriples {
		return nil, nil, fmt.Errorf("%w: %d terms and %d triples, header says %d and %d",
			ErrBadSnapshot, terms, triples, wantTerms, wantTriples)
	}
	return dict, st, nil
}
