package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
)

// inferRecord is a well-formed record of inferred triples, which only a
// snapshot may hold.
func inferRecord() Record {
	rec := testRecord(2)
	rec.Op = OpInfer
	return rec
}

// inferSegment is a segment of two valid records followed by an OpInfer
// record under a valid CRC.
func inferSegment() []byte {
	seg := append(segmentMagic[:], Version)
	seg = appendRecord(seg, testRecord(0))
	seg = appendRecord(seg, testRecord(1))
	return appendRecord(seg, inferRecord())
}

// TestInferRecordIsNotLogged checks that Append refuses an OpInfer
// record, and that replay cuts a logged one as a torn tail.
func TestInferRecordIsNotLogged(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(inferRecord()); !errors.Is(err, ErrRejected) {
		t.Fatalf("Append(OpInfer) = %v, want ErrRejected", err)
	}
	l.Close()

	dir := t.TempDir()
	seg := inferSegment()
	valid := len(seg) - len(appendRecord(nil, inferRecord()))
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o666); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs, stats := replayAll(t, l)
	if len(recs) != 2 || stats.TruncatedAt != int64(valid) {
		t.Fatalf("replayed %d records, cut at %d; want 2, cut at %d", len(recs), stats.TruncatedAt, valid)
	}
	if fi, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil || fi.Size() != int64(valid) {
		t.Fatalf("segment after replay: %v, %v; want %d bytes", fi, err, valid)
	}
}

// TestReadFrame reads frames back and checks the refusals of the frame
// layer itself: a clean end is io.EOF, anything else malformed an error.
func TestReadFrame(t *testing.T) {
	frames := appendRecord(appendRecord(nil, testRecord(0)), inferRecord())
	r := bytes.NewReader(frames)
	for i, want := range []Record{testRecord(0), inferRecord()} {
		rec, _, err := ReadFrame(r, nil)
		if err != nil || !bytes.Equal(appendRecord(nil, rec), appendRecord(nil, want)) {
			t.Fatalf("frame %d: %+v, %v; want %+v", i, rec, err, want)
		}
	}
	if _, _, err := ReadFrame(r, nil); err != io.EOF {
		t.Fatalf("at the end: %v, want io.EOF", err)
	}

	one := appendRecord(nil, testRecord(0))
	crc := append([]byte(nil), one...)
	crc[len(crc)-1] ^= 1
	for name, b := range map[string][]byte{
		"truncated":           one[:len(one)-1],
		"CRC mismatch":        crc,
		"non-minimal length":  append([]byte{one[0] | 0x80, 0}, one[1:]...),
		"over the limit":      appendUvarint(nil, maxRecordLen+1),
		"unterminated length": {0x80},
	} {
		if _, _, err := ReadFrame(bytes.NewReader(b), nil); err == nil || err == io.EOF {
			t.Errorf("%s: err = %v, want a frame error", name, err)
		}
	}
}

// TestRegisterTerms checks that a record's terms register with the IDs
// it recorded, and that a term recorded under another ID is refused.
func TestRegisterTerms(t *testing.T) {
	dict := rdf.NewDictionary()
	if err := testRecord(0).RegisterTerms(dict); err != nil {
		t.Fatal(err)
	}
	other := Record{Op: OpAssert, Terms: []TermEntry{{ID: rdf.IDClass, Term: rdf.NewIRI("http://example.org/y")}}}
	if err := other.RegisterTerms(dict); err == nil {
		t.Fatal("a term recorded under another term's ID was registered")
	}
}
