package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"slices"

	"repro/internal/rdf"
)

// The checkpoint's explicit-set sidecar records which triples of the
// snapshotted (materialised) store were explicitly asserted, so
// delete-and-rederive keeps working across restarts. Format:
//
//	magic "SLEX" | version u8 | #triples uvarint |
//	per triple: s, p, o uvarints | crc32 of everything before it, u32 LE
var explicitMagic = [4]byte{'S', 'L', 'E', 'X'}

// WriteExplicitSeq writes n explicit triples from seq in the sidecar
// format, streaming in bounded chunks: the set can be large, and a
// checkpoint holds the ingest lock, so a contiguous whole-set buffer (or
// slice) would be a memory spike at the worst moment. seq must yield
// exactly n triples.
func WriteExplicitSeq(w io.Writer, n int, seq iter.Seq[rdf.Triple]) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	h := crc32.NewIEEE()
	body := io.MultiWriter(bw, h)
	buf := make([]byte, 0, 64)
	buf = append(buf, explicitMagic[:]...)
	buf = append(buf, Version)
	buf = appendUvarint(buf, uint64(n))
	if _, err := body.Write(buf); err != nil {
		return err
	}
	written := 0
	for t := range seq {
		buf = buf[:0]
		buf = appendUvarint(buf, uint64(t.S))
		buf = appendUvarint(buf, uint64(t.P))
		buf = appendUvarint(buf, uint64(t.O))
		if _, err := body.Write(buf); err != nil {
			return err
		}
		written++
	}
	if written != n {
		return fmt.Errorf("wal: explicit set yielded %d triples, caller declared %d", written, n)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteExplicit is the slice form of WriteExplicitSeq.
func WriteExplicit(w io.Writer, ts []rdf.Triple) error {
	return WriteExplicitSeq(w, len(ts), slices.Values(ts))
}

// ReadExplicit reads an explicit-set sidecar written by WriteExplicit.
func ReadExplicit(r io.Reader) ([]rdf.Triple, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(b) < len(explicitMagic)+1+4 {
		return nil, fmt.Errorf("%w: truncated explicit set", ErrCorrupt)
	}
	body, crc := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: explicit set checksum mismatch", ErrCorrupt)
	}
	if [4]byte{body[0], body[1], body[2], body[3]} != explicitMagic {
		return nil, fmt.Errorf("%w: bad explicit set header", ErrCorrupt)
	}
	if body[4] != Version {
		return nil, unsupportedVersion("explicit set", int(body[4]))
	}
	c := &byteCursor{b: body, off: len(explicitMagic) + 1}
	n := c.uvarint()
	if c.failed || n > uint64(c.remaining())/3+1 {
		return nil, fmt.Errorf("%w: bad explicit set count", ErrCorrupt)
	}
	ts := make([]rdf.Triple, 0, n)
	for i := uint64(0); i < n; i++ {
		t := rdf.T(c.id(), c.id(), c.id())
		if !c.ok() {
			return nil, fmt.Errorf("%w: truncated or out-of-range explicit triple", ErrCorrupt)
		}
		if !tripleOK(t) {
			return nil, fmt.Errorf("%w: explicit triple with wildcard or out-of-range ID", ErrCorrupt)
		}
		ts = append(ts, t)
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in explicit set", ErrCorrupt)
	}
	return ts, nil
}
