package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
)

// seq30 is an IRI ID with sequence number 2^30: one past what the
// dictionary mints and the store's packed runs hold.
const seq30 = rdf.ID(1 << 30)

// outOfRangeRecords are well-framed records that each carry one ID with
// sequence number 2^30, as a term entry or in any triple position.
func outOfRangeRecords() []Record {
	return []Record{
		{Op: OpAssert, Terms: []TermEntry{{ID: seq30, Term: rdf.NewIRI("http://example.org/x")}}},
		{Op: OpAssert, Triples: []rdf.Triple{rdf.T(seq30, rdf.IDType, rdf.IDClass)}},
		{Op: OpRetract, Triples: []rdf.Triple{rdf.T(rdf.IDClass, seq30, rdf.IDClass)}},
		{Op: OpAssert, Triples: []rdf.Triple{rdf.T(rdf.IDClass, rdf.IDType, seq30|1<<62)}},
	}
}

// outOfRangeSegment is a segment of two valid records followed by one
// carrying sequence number 2^30 and a valid CRC.
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

func TestReadExplicitRejectsOutOfRangeID(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExplicit(&buf, []rdf.Triple{rdf.T(1, 2, 3), rdf.T(4, 5, seq30)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadExplicit(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadExplicit = %v, want ErrCorrupt", err)
	}
}
