package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/rdf"
)

// ErrRejected marks an append refused because the record itself is
// invalid (bad op, wildcard or out-of-range ID, oversized string or
// frame). Rejections say
// nothing about the disk: the degradation machinery must pass them back
// to the caller rather than enter read-only mode over them.
var ErrRejected = errors.New("wal: record rejected")

// Op says what a log record does to the knowledge base.
type Op uint8

const (
	// OpAssert records a batch of explicit triples entering the store.
	OpAssert Op = 1
	// OpRetract records a batch of explicit triples being retracted
	// (delete-and-rederive runs over them on replay).
	OpRetract Op = 2
	// OpInfer records a batch of inferred triples. Only a snapshot holds
	// it: Append refuses it, and replay treats one as a bad frame.
	OpInfer Op = 3
)

// TermEntry is one dictionary delta: a term and the ID the dictionary
// assigned it. Replay re-encodes the term and verifies the ID matches, so
// dictionary-encoded triples in later records resolve identically.
type TermEntry struct {
	ID   rdf.ID
	Term rdf.Term
}

// Record is one durable unit of the log: an assert or retract batch plus
// the dictionary entries that appeared since the previous record. A
// snapshot is a sequence of records too (internal/snapshot).
type Record struct {
	Op      Op
	Terms   []TermEntry
	Triples []rdf.Triple
}

// RegisterTerms encodes rec's terms into dict in order and checks that
// each gets the ID rec recorded for it, so the triples of this record
// and of later ones name the terms they named when written.
func (rec Record) RegisterTerms(dict *rdf.Dictionary) error {
	for _, te := range rec.Terms {
		if got := dict.Encode(te.Term); got != te.ID {
			return fmt.Errorf("wal: term %v resolved to ID %d, recorded as %d",
				te.Term, uint64(got), uint64(te.ID))
		}
	}
	return nil
}

// Decoding limits. A frame larger than maxRecordLen is treated as
// corruption rather than allocated.
const (
	maxRecordLen = 1 << 28
	maxStringLen = 1 << 24
)

// appendUvarint appends the varint encoding of v to b.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendString appends a length-prefixed string to b.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// validateRecord rejects records the decoder would refuse, so a
// successful Append is always recoverable: without this, an oversized
// (or wildcard-carrying) record would be written and acknowledged, then
// silently treated as a torn tail on the next Open — dropping it and
// every record after it.
func validateRecord(rec Record) error {
	if rec.Op != OpAssert && rec.Op != OpRetract {
		return fmt.Errorf("%w: bad record op %d", ErrRejected, rec.Op)
	}
	for _, te := range rec.Terms {
		if !idOK(te.ID) {
			return fmt.Errorf("%w: term entry with wildcard or out-of-range ID", ErrRejected)
		}
		if len(te.Term.Value) > maxStringLen || len(te.Term.Lang) > maxStringLen ||
			len(te.Term.Datatype) > maxStringLen {
			return fmt.Errorf("%w: term string exceeds %d bytes", ErrRejected, maxStringLen)
		}
	}
	for _, t := range rec.Triples {
		if !tripleOK(t) {
			return fmt.Errorf("%w: triple with wildcard or out-of-range ID", ErrRejected)
		}
	}
	return nil
}

// idOK reports whether id can name a term: it is not the wildcard, and
// its kind bits are a term kind (rdf.IDFromUint64). Decoders reject any
// other ID as corruption.
func idOK(id rdf.ID) bool {
	_, ok := rdf.IDFromUint64(uint64(id))
	return ok && id != rdf.Any
}

func tripleOK(t rdf.Triple) bool { return idOK(t.S) && idOK(t.P) && idOK(t.O) }

// Record frame layout:
//
//	payloadLen uvarint | payload | crc32(payload) u32 little-endian
//
// payload:
//
//	op u8
//	#terms uvarint, per term: id uvarint | value | lang | datatype
//	        (strings are uvarint length + bytes; the term kind is the
//	        one encoded in the ID's top bits)
//	#triples uvarint, per triple: s, p, o uvarints

// encodeRecordPayload appends the record payload (no framing) to b.
func encodeRecordPayload(b []byte, rec Record) []byte {
	b = append(b, byte(rec.Op))
	b = appendUvarint(b, uint64(len(rec.Terms)))
	for _, te := range rec.Terms {
		b = appendUvarint(b, uint64(te.ID))
		b = appendString(b, te.Term.Value)
		b = appendString(b, te.Term.Lang)
		b = appendString(b, te.Term.Datatype)
	}
	b = appendUvarint(b, uint64(len(rec.Triples)))
	for _, t := range rec.Triples {
		b = appendUvarint(b, uint64(t.S))
		b = appendUvarint(b, uint64(t.P))
		b = appendUvarint(b, uint64(t.O))
	}
	return b
}

// EncodeFrame encodes rec into a complete frame inside scratch (reused
// across calls, so the hot append path allocates only on growth). The
// returned slice aliases scratch's backing array: the payload is encoded
// after a reserved maximum-width length prefix, the minimal varint
// length is then right-aligned into the gap, and the CRC appended — no
// second buffer, no payload copy.
func EncodeFrame(scratch []byte, rec Record) (frame, grown []byte) {
	const prefix = binary.MaxVarintLen64
	if cap(scratch) < prefix {
		scratch = make([]byte, 0, 1024)
	}
	b := encodeRecordPayload(scratch[:prefix], rec)
	payloadLen := len(b) - prefix
	var lenBuf [prefix]byte
	n := binary.PutUvarint(lenBuf[:], uint64(payloadLen))
	start := prefix - n
	copy(b[start:], lenBuf[:n])
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b[prefix:]))
	b = append(b, crc[:]...)
	return b[start:], b
}

// byteCursor reads primitives out of a byte slice with bounds checking;
// after any failed read ok() is false and further reads return zero
// values. It never panics on malformed input.
type byteCursor struct {
	b      []byte
	off    int
	failed bool
}

func (c *byteCursor) ok() bool       { return !c.failed }
func (c *byteCursor) remaining() int { return len(c.b) - c.off }
func (c *byteCursor) fail()          { c.failed = true }

// uvarintLen returns the length of the minimal varint encoding of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (c *byteCursor) uvarint() uint64 {
	if c.failed {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	// Reject unterminated and non-minimal encodings: the writer only
	// emits minimal varints, so anything else is corruption, and strict
	// decoding keeps decode∘encode the identity on valid frames.
	if n <= 0 || n != uvarintLen(v) {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

// id reads an ID, failing the cursor on a value that names no term kind:
// wider than an ID, or of kind bits 11 (rdf.IDFromUint64).
func (c *byteCursor) id() rdf.ID {
	id, ok := rdf.IDFromUint64(c.uvarint())
	if !ok {
		c.fail()
	}
	return id
}

func (c *byteCursor) byte() byte {
	if c.failed || c.off >= len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *byteCursor) string() string {
	n := c.uvarint()
	if c.failed || n > maxStringLen || n > uint64(c.remaining()) {
		c.fail()
		return ""
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}

// decodeRecord parses a record payload (the CRC has already been
// verified, but the payload is still untrusted: a corrupted frame can
// carry a valid CRC of corrupted bytes). It returns an error instead of
// panicking on any malformed input.
func decodeRecord(payload []byte) (Record, error) {
	c := &byteCursor{b: payload}
	var rec Record
	op := Op(c.byte())
	if op != OpAssert && op != OpRetract && op != OpInfer {
		return rec, fmt.Errorf("wal: bad record op %d", op)
	}
	rec.Op = op

	nTerms := c.uvarint()
	// Every term entry takes at least 4 bytes (id + three empty strings).
	if c.failed || nTerms > uint64(c.remaining())/4+1 {
		return rec, fmt.Errorf("wal: bad term count")
	}
	if nTerms > 0 {
		rec.Terms = make([]TermEntry, 0, nTerms)
	}
	for i := uint64(0); i < nTerms; i++ {
		id := c.id()
		value := c.string()
		lang := c.string()
		datatype := c.string()
		if !c.ok() {
			return rec, fmt.Errorf("wal: truncated or out-of-range term entry")
		}
		if !idOK(id) {
			return rec, fmt.Errorf("wal: term entry with wildcard or out-of-range ID")
		}
		rec.Terms = append(rec.Terms, TermEntry{
			ID:   id,
			Term: rdf.Term{Kind: id.Kind(), Value: value, Lang: lang, Datatype: datatype},
		})
	}

	nTriples := c.uvarint()
	// Every triple takes at least 3 bytes.
	if c.failed || nTriples > uint64(c.remaining())/3+1 {
		return rec, fmt.Errorf("wal: bad triple count")
	}
	if nTriples > 0 {
		rec.Triples = make([]rdf.Triple, 0, nTriples)
	}
	for i := uint64(0); i < nTriples; i++ {
		t := rdf.T(c.id(), c.id(), c.id())
		if !c.ok() {
			return rec, fmt.Errorf("wal: truncated or out-of-range triple")
		}
		// The store treats ID 0 as a match-anything wildcard; a logged
		// triple never carries it, so one is corruption that slipped past
		// the CRC.
		if !tripleOK(t) {
			return rec, fmt.Errorf("wal: triple with wildcard or out-of-range ID")
		}
		rec.Triples = append(rec.Triples, t)
	}
	if c.remaining() != 0 {
		return rec, fmt.Errorf("wal: %d trailing bytes in record", c.remaining())
	}
	return rec, nil
}

// FrameSource is what ReadFrame reads from, such as a *bufio.Reader or
// a *bytes.Reader.
type FrameSource interface {
	io.Reader
	io.ByteReader
}

// ReadFrame reads the next frame from r and decodes its record. It
// returns io.EOF when r ends before a frame's first byte, and an error
// for a frame that is truncated, has a non-minimal length or one over
// maxRecordLen, fails its CRC, or carries a payload decodeRecord
// refuses. buf is scratch for the payload, returned grown; the record
// does not alias it. The payload is read in bounded steps, so a
// corrupted length allocates no more than the bytes that are there.
func ReadFrame(r FrameSource, buf []byte) (Record, []byte, error) {
	var lenBuf [binary.MaxVarintLen64]byte
	n := 0
	for {
		c, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && n == 0 {
				return Record{}, buf, io.EOF
			}
			return Record{}, buf, fmt.Errorf("wal: truncated frame length: %w", err)
		}
		lenBuf[n] = c
		n++
		if c < 0x80 || n == len(lenBuf) {
			break
		}
	}
	v, m := binary.Uvarint(lenBuf[:n])
	if m != n || m != uvarintLen(v) || v > maxRecordLen {
		return Record{}, buf, fmt.Errorf("wal: bad frame length")
	}
	const step = 1 << 20
	need := int(v) + 4
	buf = buf[:0]
	for len(buf) < need {
		k := min(need-len(buf), step)
		buf = slices.Grow(buf, k)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+got]
		if err != nil {
			return Record{}, buf, fmt.Errorf("wal: truncated frame: %w", err)
		}
	}
	payload := buf[:v]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[v:]) {
		return Record{}, buf, fmt.Errorf("wal: frame CRC mismatch")
	}
	rec, err := decodeRecord(payload)
	return rec, buf, err
}
