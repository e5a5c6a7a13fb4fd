package rdf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// dictStripes is the number of lock stripes (a power of two). Arena
	// chunks double from firstChunk to chunkSize bytes; a larger record
	// gets a chunk of its own, sized to fit it exactly.
	dictStripes, firstChunk, chunkSize = 32, 512, 64 << 10
	// A ref is 32 bits: chunk index << refOffBits | byte offset. Offsets
	// fit: a record starts past byte 0 only in a chunk of at most chunkSize
	// bytes. A ref list holds global refs, whose 16-bit chunk index counts
	// Dictionary.chunks; a table slot holds a local ref, whose 12-bit chunk
	// index counts its stripe's chunks. So a stripe holds at most
	// maxStripeChunks chunks, and the dictionary at most maxChunks, about
	// 4 GiB of arena (see chunkMintable).
	refOffBits, refOffMask     = 16, 1<<16 - 1
	maxStripeChunks, maxChunks = 1 << 12, 1 << 16
	// A table slot is a 4-bit hash fingerprint << slotFPShift | the
	// record's 28-bit local ref. A stripe's chunk 0 is empty, so a live
	// local ref is never 0, and 0 marks an empty slot.
	slotFPShift, slotRef = 28, 1<<28 - 1
)

// dictStripe is one shard of the term→ID direction: an append-only byte
// arena holding the shard's records and an open-addressing table over it.
type dictStripe struct {
	mu     sync.RWMutex
	table  []uint32 // power-of-two length, at most ¾ full
	n      int      // occupied slots
	chunks [][]byte // local refs index this; starts with an empty chunk
	used   int      // bytes written to the last chunk
	global uint32   // index of the last chunk in Dictionary.chunks
}

// Dictionary maps RDF terms to dense integer IDs and back. It plays the
// role of Slider's input-manager dictionary: "expensive URIs" are
// registered once and every downstream component works on integers.
//
// A Dictionary is safe for concurrent use and holds no per-term Go
// object for the collector to trace. Each term is one byte-arena record:
// a tag (kind, plus an index into a small interned table of language
// tags and datatypes), the per-kind sequence number, the value's length
// and bytes. The term→ID direction is sharded across lock stripes by a
// hash of the term (see canonTerm: terms get the same ID exactly when
// their String renderings are equal); a stripe owns its records' arena
// and an open-addressing table of 32-bit slots, probed in place without
// allocating. The ID→term direction is one ref list per kind, appended
// under seqMu in per-kind sequence order, which keeps ForEach — and so
// snapshot round-trips — deterministic; seqMu also publishes the chunks
// with the refs, so enumeration reads a captured prefix with no lock per
// term. Lock order: a stripe lock, then seqMu, never the reverse.
type Dictionary struct {
	stripes [dictStripes]dictStripe
	seed    maphash.Seed
	// annots holds "@" + a language tag or "^" + a datatype IRI per
	// interned annotation, copy-on-write so probes read it without seqMu.
	annots atomic.Pointer[[]string]

	// seqMu guards every arena chunk in allocation order, one ref list per
	// term kind, and the annotation index.
	seqMu    sync.RWMutex
	chunks   [][]byte
	refs     [3][]uint32 // global refs, indexed by TermKind
	annotIdx map[string]uint64
}

// NewDictionary returns a dictionary pre-seeded with the well-known RDF
// and RDFS vocabulary so that the IDType, IDSubClassOf, … constants are
// valid for every dictionary.
func NewDictionary() *Dictionary {
	d := &Dictionary{seed: maphash.MakeSeed(), annotIdx: make(map[string]uint64)}
	d.annots.Store(new([]string))
	for i := range d.stripes {
		d.stripes[i].table, d.stripes[i].chunks = make([]uint32, 64), [][]byte{nil}
	}
	for _, t := range wellKnown {
		d.Encode(t)
	}
	return d
}

// canonTerm maps t to the representative of its String-equality class,
// so struct keying matches the documented contract that two terms are
// equal exactly when their String values are equal: String ignores Lang
// and Datatype on IRIs and blanks, and ignores Datatype on
// language-tagged literals. The constructors never produce the dropped
// combinations, so for constructor-built terms this is the identity.
func canonTerm(t Term) Term {
	switch {
	case t.Kind != TermLiteral:
		t.Lang, t.Datatype = "", ""
	case t.Lang != "":
		t.Datatype = ""
	}
	return t
}

// hash hashes t (already canonicalised). Its low bits select the stripe,
// the bits above them the home slot, and its top 4 the fingerprint.
func (d *Dictionary) hash(t Term) uint64 {
	h := maphash.String(d.seed, t.Value)
	h = h*31 + uint64(t.Kind)
	if t.Lang != "" {
		h ^= maphash.String(d.seed, t.Lang)
	}
	if t.Datatype != "" {
		h ^= maphash.String(d.seed, t.Datatype)
	}
	return h
}

// arenaString returns b as a string without copying it. This is safe
// because b lies in a published arena record: a record is written once,
// before its ref is published in a table or a ref list, and is never
// rewritten, and a chunk is never reallocated or reused, so the bytes
// neither change nor move while the string is reachable.
func arenaString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// decode returns the term and sequence number of the record at ref.
func decode(chunks [][]byte, annots []string, ref uint32) (Term, uint64) {
	b := chunks[ref>>refOffBits][ref&refOffMask:]
	tag, n := binary.Uvarint(b)
	b = b[n:]
	seq, n := binary.Uvarint(b)
	b = b[n:]
	size, n := binary.Uvarint(b)
	t := Term{Kind: TermKind(tag & 3), Value: arenaString(b[n : n+int(size)])}
	if a := tag >> 2; a != 0 && annots[a-1][0] == '@' {
		t.Lang = annots[a-1][1:]
	} else if a != 0 {
		t.Datatype = annots[a-1][1:]
	}
	return t, seq
}

// find probes s's table for t with hash h. It returns t's ID when present
// and otherwise the empty slot t would take. Called with s.mu held.
func (s *dictStripe) find(t Term, h uint64, annots []string) (slot int, id ID, ok bool) {
	mask := len(s.table) - 1
	fp := fingerprint(h)
	for i := int(h/dictStripes) & mask; ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			return i, 0, false
		}
		if e&^slotRef == fp {
			if rt, seq := decode(s.chunks, annots, e&slotRef); rt == t {
				return i, makeID(t.Kind, seq), true
			}
		}
	}
}

// fingerprint returns h's top 4 bits in a table slot's fingerprint field.
func fingerprint(h uint64) uint32 { return uint32(h >> 60 << slotFPShift) }

// Encode returns the ID for the term, assigning a fresh one on first
// encounter. It panics, before it changes any state, rather than mint the
// 2^30-th term of a kind, whose sequence number would spill into the kind
// bits, or add an arena chunk past chunkMintable's caps, whose index
// would spill out of a ref.
func (d *Dictionary) Encode(t Term) ID {
	t = canonTerm(t)
	h := d.hash(t)
	s := &d.stripes[h&(dictStripes-1)]
	s.mu.RLock()
	_, id, ok := s.find(t, h, *d.annots.Load())
	s.mu.RUnlock()
	if ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, id, ok := s.find(t, h, *d.annots.Load())
	if ok {
		return id
	}
	d.seqMu.Lock()
	var buf [64]byte
	key := annotKey(buf[:0], t)
	a, fresh := d.annot(key)
	seq := uint64(len(d.refs[t.Kind]) + 1)
	var hdr [3 * binary.MaxVarintLen64]byte
	rec := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(hdr[:0], a<<2|uint64(t.Kind)), seq), uint64(len(t.Value)))
	n := len(rec) + len(t.Value)
	c := s.chunks[len(s.chunks)-1]
	full := n > len(c)-s.used
	var err error
	if !mintable(len(d.refs[t.Kind])) {
		err = errTermLimit
	} else if full && !chunkMintable(len(s.chunks), len(d.chunks)) {
		err = errArenaLimit
	}
	if err != nil {
		d.seqMu.Unlock()
		panic(err)
	}
	if fresh {
		d.intern(key)
	}
	if full {
		c = make([]byte, max(n, min(2*len(c), chunkSize), firstChunk))
		s.chunks, d.chunks = append(s.chunks, c), append(d.chunks, c)
		s.global, s.used = uint32(len(d.chunks)-1), 0
	}
	copy(c[s.used:], rec)
	copy(c[s.used+len(rec):], t.Value)
	d.refs[t.Kind] = append(d.refs[t.Kind], s.global<<refOffBits|uint32(s.used))
	d.seqMu.Unlock()
	s.table[slot] = fingerprint(h) | uint32(len(s.chunks)-1)<<refOffBits | uint32(s.used)
	s.used += n
	if s.n++; 4*s.n > 3*len(s.table) {
		s.grow(d)
	}
	return makeID(t.Kind, seq)
}

// Encode's panic values: a kind is exhausted, or the arena is.
var (
	errTermLimit  = errors.New("rdf: 2^30-1 terms of one kind is the limit of a 32-bit ID")
	errArenaLimit = errors.New("rdf: 65536 arena chunks, 4096 per stripe (about 4 GiB), is the limit of a 32-bit ref")
)

// mintable reports whether a kind holding n terms may mint another: the
// new term's sequence number, n+1, must stay below 2^30.
func mintable(n int) bool { return n+1 < 1<<kindShift }

// chunkMintable reports whether a stripe holding local chunks, in a
// dictionary holding global chunks, may add another: the new chunk's
// indexes, local and global, must fit a local and a global ref.
func chunkMintable(local, global int) bool { return local < maxStripeChunks && global < maxChunks }

// annotKey appends t's annotation key to buf: "@" + its language tag or
// "^" + its datatype IRI. It returns nil for a term with neither.
func annotKey(buf []byte, t Term) []byte {
	switch {
	case t.Lang != "":
		return append(append(buf, '@'), t.Lang...)
	case t.Datatype != "":
		return append(append(buf, '^'), t.Datatype...)
	}
	return nil
}

// annot returns the index, from 1, of the annotation key (0 for nil), and
// whether it is not interned yet; the index is then the one intern will
// give it. Called with d.seqMu held.
func (d *Dictionary) annot(key []byte) (uint64, bool) {
	if key == nil {
		return 0, false
	}
	if i, ok := d.annotIdx[string(key)]; ok {
		return i, false
	}
	return uint64(len(*d.annots.Load()) + 1), true
}

// intern appends the annotation key to the copy-on-write table. Called
// with d.seqMu held.
func (d *Dictionary) intern(key []byte) {
	old := *d.annots.Load()
	next := append(old[:len(old):len(old)], string(key))
	d.annots.Store(&next)
	d.annotIdx[next[len(next)-1]] = uint64(len(next))
}

// grow doubles s's table, rehashing every record from the arena. Called
// with s.mu held for writing.
func (s *dictStripe) grow(d *Dictionary) {
	old, annots := s.table, *d.annots.Load()
	s.table = make([]uint32, 2*len(old))
	for _, e := range old {
		if e != 0 {
			t, _ := decode(s.chunks, annots, e&slotRef)
			i, _, _ := s.find(t, d.hash(t), annots)
			s.table[i] = e
		}
	}
}

// EncodeIRI is shorthand for Encode(NewIRI(iri)).
func (d *Dictionary) EncodeIRI(iri string) ID { return d.Encode(NewIRI(iri)) }

// Lookup returns the ID for the term without assigning a new one.
func (d *Dictionary) Lookup(t Term) (ID, bool) {
	t = canonTerm(t)
	h := d.hash(t)
	s := &d.stripes[h&(dictStripes-1)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, id, ok := s.find(t, h, *d.annots.Load())
	return id, ok
}

// Term returns the term for an ID; its strings alias the arena. An ID of
// kind bits 11 names no term.
func (d *Dictionary) Term(id ID) (Term, bool) {
	v := d.view()
	if k, seq := int(id>>kindShift), id.seq(); k < len(v.refs) && seq != 0 && seq <= uint64(len(v.refs[k])) {
		t, _ := decode(v.chunks, v.annots, v.refs[k][seq-1])
		return t, true
	}
	return Term{}, false
}

// view captures the whole dictionary as it stands.
func (d *Dictionary) view() DictView {
	d.seqMu.RLock()
	defer d.seqMu.RUnlock()
	return DictView{chunks: d.chunks, annots: *d.annots.Load(), refs: d.refs}
}

// Len returns the number of distinct terms registered (including the
// well-known vocabulary).
func (d *Dictionary) Len() int {
	iris, blanks, literals := d.KindCounts()
	return iris + blanks + literals
}

// ForEach calls f for every registered term (including the well-known
// vocabulary) until f returns false. Iteration is in sequence order
// within each kind (IRIs, then blanks, then literals), so re-encoding the
// terms into a fresh dictionary in this order reproduces identical IDs —
// the property snapshot persistence relies on.
func (d *Dictionary) ForEach(f func(ID, Term) bool) { d.ForEachNew(0, 0, 0, f) }

// KindCounts returns the number of terms registered per kind (IRIs,
// blank nodes, literals). Together with ForEachNew it lets an observer —
// the write-ahead log — track which terms appeared since a previous
// high-water mark.
func (d *Dictionary) KindCounts() (iris, blanks, literals int) {
	d.seqMu.RLock()
	defer d.seqMu.RUnlock()
	return len(d.refs[TermIRI]), len(d.refs[TermBlank]), len(d.refs[TermLiteral])
}

// ForEachNew calls f for every term whose per-kind sequence number
// exceeds the given counts (a previous KindCounts result), in sequence
// order within each kind — the same order ForEach uses, so re-encoding
// the visited terms into a dictionary that already holds the first
// (iris, blanks, literals) terms reproduces identical IDs.
func (d *Dictionary) ForEachNew(iris, blanks, literals int, f func(ID, Term) bool) {
	v := d.view()
	v.each([3]int{iris, blanks, literals}, f)
}

// DictView is a prefix-stable read-only view of a Dictionary: the first
// iris/blanks/literals terms of each kind as they stood when ViewAt was
// called. Because the per-kind sequences are append-only and records
// never move, the view stays valid — and keeps returning exactly the same
// terms and IDs, without taking a lock — while the dictionary continues
// to grow concurrently. It is the dictionary half of a non-blocking
// checkpoint: the write-ahead log records how many terms of each kind it
// has persisted, and the checkpoint streams precisely that prefix.
type DictView struct {
	chunks [][]byte
	annots []string
	refs   [3][]uint32
}

// ViewAt returns a view of the first (iris, blanks, literals) terms per
// kind, clamped to what is currently registered.
func (d *Dictionary) ViewAt(iris, blanks, literals int) *DictView {
	v := d.view()
	for k, n := range [3]int{iris, blanks, literals} {
		v.refs[k] = v.refs[k][:min(n, len(v.refs[k]))]
	}
	return &v
}

// Len returns the number of terms in the view.
func (v *DictView) Len() int {
	return len(v.refs[TermIRI]) + len(v.refs[TermBlank]) + len(v.refs[TermLiteral])
}

// ForEach calls f for every term in the view until f returns false, in
// the same kind-then-sequence order Dictionary.ForEach uses, so a
// snapshot written from the view reloads with identical IDs.
func (v *DictView) ForEach(f func(ID, Term) bool) { v.each([3]int{}, f) }

// each calls f for every term past the first from[k] of each kind k, in
// kind-then-sequence order, until f returns false.
func (v *DictView) each(from [3]int, f func(ID, Term) bool) {
	for k, refs := range v.refs {
		for i := from[k]; i < len(refs); i++ {
			t, _ := decode(v.chunks, v.annots, refs[i])
			if !f(makeID(TermKind(k), uint64(i+1)), t) {
				return
			}
		}
	}
}

// EncodeStatement encodes all three terms of a statement.
func (d *Dictionary) EncodeStatement(s Statement) Triple {
	return Triple{S: d.Encode(s.S), P: d.Encode(s.P), O: d.Encode(s.O)}
}

// DecodeTriple resolves all three IDs of a triple. It reports ok=false if
// any component is unknown.
func (d *Dictionary) DecodeTriple(t Triple) (Statement, bool) {
	s, ok1 := d.Term(t.S)
	p, ok2 := d.Term(t.P)
	o, ok3 := d.Term(t.O)
	return Statement{S: s, P: p, O: o}, ok1 && ok2 && ok3
}

// Format renders a triple using the dictionary, falling back to raw IDs
// for unknown components. Intended for logs and error messages.
func (d *Dictionary) Format(t Triple) string {
	part := func(id ID) string {
		if term, ok := d.Term(id); ok {
			return term.String()
		}
		return fmt.Sprintf("?%d", id)
	}
	return part(t.S) + " " + part(t.P) + " " + part(t.O) + " ."
}
