package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
)

// kind11 is an ID whose kind bits, 11, name no term.
const kind11 = rdf.ID(3<<30 | 5)

// notTerm are encoded values that name no term: 33 bits wide (which
// would truncate onto IRI 5), a literal in the 64-bit layout of format
// version 1 (onto IRI 9), the widest 10-byte uvarint, and kind bits 11.
var notTerm = []uint64{1<<32 | 5, 2<<62 | 9, 1<<64 - 1, 3<<30 | 5}

// validIDs are a term entry's ID followed by a triple's s, p and o, all
// naming terms; rawPayload encodes them.
var validIDs = [4]uint64{uint64(rdf.IDClass), uint64(rdf.IDClass), uint64(rdf.IDType), uint64(rdf.IDClass)}

// outOfRangeRecords are well-framed records that each carry one ID of
// kind bits 11, as a term entry or in any triple position.
func outOfRangeRecords() []Record {
	return []Record{
		{Op: OpAssert, Terms: []TermEntry{{ID: kind11, Term: rdf.NewIRI("http://example.org/x")}}},
		{Op: OpAssert, Triples: []rdf.Triple{rdf.T(kind11, rdf.IDType, rdf.IDClass)}},
		{Op: OpRetract, Triples: []rdf.Triple{rdf.T(rdf.IDClass, kind11, rdf.IDClass)}},
		{Op: OpAssert, Triples: []rdf.Triple{rdf.T(rdf.IDClass, rdf.IDType, kind11)}},
	}
}

// rawPayload encodes an assert payload as encodeRecordPayload does, but
// from raw integers: one term entry with ID ids[0] and empty strings,
// and one triple ids[1:].
func rawPayload(ids [4]uint64) []byte {
	b := appendUvarint([]byte{byte(OpAssert), 1}, ids[0])
	b = append(b, 0, 0, 0, 1)
	for _, x := range ids[1:] {
		b = appendUvarint(b, x)
	}
	return b
}

// appendRecord appends rec's frame to b.
func appendRecord(b []byte, rec Record) []byte {
	frame, _ := EncodeFrame(nil, rec)
	return append(b, frame...)
}

// rawFrame frames a payload as EncodeFrame does, with a valid CRC.
func rawFrame(payload []byte) []byte {
	b := appendUvarint(nil, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// outOfRangeSegment is a segment of two valid records followed by one
// carrying an ID of kind bits 11 and a valid CRC.
func outOfRangeSegment() []byte {
	seg := append(segmentMagic[:], Version)
	seg = appendRecord(seg, testRecord(0))
	seg = appendRecord(seg, testRecord(1))
	return appendRecord(seg, outOfRangeRecords()[1])
}

func TestOutOfRangeIDsRejected(t *testing.T) {
	for i, rec := range outOfRangeRecords() {
		if err := validateRecord(rec); !errors.Is(err, ErrRejected) {
			t.Errorf("record %d: validateRecord = %v, want ErrRejected", i, err)
		}
		if _, err := decodeRecord(encodeRecordPayload(nil, rec)); err == nil {
			t.Errorf("record %d: decodeRecord accepted an out-of-range ID", i)
		}
	}
	if _, err := decodeRecord(rawPayload(validIDs)); err != nil {
		t.Fatalf("decodeRecord on valid raw IDs: %v", err)
	}
	for _, x := range notTerm {
		for pos := range validIDs {
			ids := validIDs
			ids[pos] = x
			if rec, err := decodeRecord(rawPayload(ids)); err == nil {
				t.Errorf("decodeRecord accepted %#x at ID position %d as %+v", x, pos, rec)
			}
		}
	}

	// Appending refuses the record; replay stops at it as corruption.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(outOfRangeRecords()[1]); !errors.Is(err, ErrRejected) {
		t.Fatalf("Append = %v, want ErrRejected", err)
	}
	l.Close()
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), outOfRangeSegment(), 0o666); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if recs, _ := replayAll(t, l); len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 before the out-of-range one", len(recs))
	}
}
