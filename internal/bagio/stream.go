package bagio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// ErrBadMagic reports a file that does not start with the v2.0 signature.
var ErrBadMagic = errors.New("bagio: not a ROS bag v2.0 file")

// MaxRecordLen bounds header and data block sizes accepted by the reader,
// protecting against corrupt length prefixes. 1 GiB comfortably exceeds
// any legitimate chunk.
const MaxRecordLen = 1 << 30

// RecordWriter emits records to an underlying stream, tracking the byte
// offset so callers can build chunk-info and bag-header positions.
type RecordWriter struct {
	w   io.Writer
	off int64
}

// NewRecordWriter wraps w. The caller is responsible for having written
// (or not) the magic; WriteMagic emits it and advances the offset.
func NewRecordWriter(w io.Writer) *RecordWriter { return &RecordWriter{w: w} }

// Offset returns the number of bytes written so far, including the magic.
func (rw *RecordWriter) Offset() int64 { return rw.off }

// WriteMagic emits the bag signature line.
func (rw *RecordWriter) WriteMagic() error {
	n, err := io.WriteString(rw.w, Magic)
	rw.off += int64(n)
	return err
}

// WriteRecord emits one record (header length, header, data length, data).
func (rw *RecordWriter) WriteRecord(r *Record) error {
	hb := r.Header.Encode()
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(hb)))
	for _, part := range [][]byte{lenb[:], hb} {
		n, err := rw.w.Write(part)
		rw.off += int64(n)
		if err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(r.Data)))
	for _, part := range [][]byte{lenb[:], r.Data} {
		n, err := rw.w.Write(part)
		rw.off += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteRaw emits pre-encoded bytes (e.g. the padded bag header).
func (rw *RecordWriter) WriteRaw(b []byte) error {
	n, err := rw.w.Write(b)
	rw.off += int64(n)
	return err
}

// RecordScanner reads records sequentially from a stream.
type RecordScanner struct {
	r    *bufio.Reader
	off  int64
	lenb [4]byte // a length prefix: a local passed to io.ReadFull escapes, one allocation per block
	head []byte  // the last header block, reused
	data []byte  // ReadRaw's last data block, reused
}

// NewRecordScanner wraps r. Call ReadMagic first when scanning from the
// start of a file.
func NewRecordScanner(r io.Reader) *RecordScanner {
	return &RecordScanner{r: bufio.NewReaderSize(r, 1<<16)}
}

// Offset returns the byte offset of the next record to be read.
func (rs *RecordScanner) Offset() int64 { return rs.off }

// Reset re-targets the scanner at a new stream position.
func (rs *RecordScanner) Reset(r io.Reader, off int64) {
	rs.r.Reset(r)
	rs.off = off
}

// ReadMagic consumes and validates the signature line.
func (rs *RecordScanner) ReadMagic() error {
	buf := make([]byte, len(Magic))
	if _, err := io.ReadFull(rs.r, buf); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(buf) != Magic {
		return fmt.Errorf("%w: got %q", ErrBadMagic, string(buf))
	}
	rs.off += int64(len(Magic))
	return nil
}

// readBlock reads one length-prefixed block into *dst, reusing its
// capacity, and returns it; a nil dst discards the block. It returns
// io.EOF when the stream ends cleanly before the length prefix.
func (rs *RecordScanner) readBlock(kind string, dst *[]byte) ([]byte, error) {
	if _, err := io.ReadFull(rs.r, rs.lenb[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("bagio: read %s length at offset %d: %w", kind, rs.off, err)
	}
	rs.off += 4
	n := binary.LittleEndian.Uint32(rs.lenb[:])
	if n > MaxRecordLen {
		return nil, fmt.Errorf("bagio: %s length %d at offset %d exceeds limit", kind, n, rs.off-4)
	}
	var block []byte
	var err error
	if dst == nil {
		_, err = rs.r.Discard(int(n))
	} else {
		block, err = readN(rs.r, (*dst)[:0], int(n))
		*dst = block
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("bagio: read %s of %d bytes at offset %d: %w", kind, n, rs.off, err)
	}
	rs.off += int64(n)
	return block, nil
}

// readN appends exactly n bytes of r to buf. The count is untrusted
// until the bytes arrive, so buf grows by at most 1 MiB per read: a
// corrupt length near MaxRecordLen on a tiny stream cannot allocate
// gigabytes, and a block of up to 1 MiB costs one exact allocation.
func readN(r io.Reader, buf []byte, n int) ([]byte, error) {
	for want := len(buf) + n; len(buf) < want; {
		step := min(want-len(buf), 1<<20)
		buf = slices.Grow(buf, step)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// frame is the one framing routine: it reads the next record's header
// block into the scanner's buffer and its data block into *data (nil
// discards it). It returns io.EOF at a clean end of stream.
func (rs *RecordScanner) frame(data *[]byte) (r RawRecord, err error) {
	if r.Header, err = rs.readBlock("header", &rs.head); err != nil {
		return r, err
	}
	if r.Data, err = rs.readBlock("data", data); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return r, err
}

// ReadRecord reads the next record into memory the caller owns. It
// returns io.EOF at a clean end of stream.
func (rs *RecordScanner) ReadRecord() (*Record, error) {
	var data []byte
	raw, err := rs.frame(&data)
	if err != nil {
		return nil, err
	}
	h, err := DecodeHeader(raw.Header)
	if err != nil {
		return nil, err
	}
	return &Record{Header: h, Data: raw.Data}, nil
}

// ReadRaw reads the next record in place: its slices borrow buffers the
// scanner reuses, valid until the next call on rs. It returns io.EOF at
// a clean end of stream.
func (rs *RecordScanner) ReadRaw() (RawRecord, error) { return rs.frame(&rs.data) }

// SkipRecord reads and discards the next record, returning its op code
// and total encoded length. It avoids retaining the data block.
func (rs *RecordScanner) SkipRecord() (op byte, size int64, err error) {
	start := rs.off
	raw, err := rs.frame(nil)
	if err != nil {
		return 0, 0, err
	}
	if op, err = raw.Header.Op(); err != nil {
		return 0, 0, err
	}
	return op, rs.off - start, nil
}

// SplitRecord frames the first record of an in-memory record stream (a
// chunk's contents) in place: its slices and rest alias b. It returns
// io.EOF for an empty b and accepts the framing ReadRecord accepts (a
// block longer than b, as any past MaxRecordLen is, is truncated).
func SplitRecord(b []byte) (r RawRecord, rest []byte, err error) {
	if len(b) == 0 {
		return r, nil, io.EOF
	}
	if r.Header, rest, err = splitBlock("header", b); err == nil {
		r.Data, rest, err = splitBlock("data", rest)
	}
	return r, rest, err
}

// splitBlock frames one length-prefixed block at the front of b, with
// the block's capacity clipped so an append cannot reach rest.
func splitBlock(kind string, b []byte) (block, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("bagio: truncated %s length (%d trailing bytes)", kind, len(b))
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n > uint64(len(b)-4) {
		return nil, nil, fmt.Errorf("bagio: %s of %d bytes overruns the %d left", kind, n, len(b)-4)
	}
	return b[4 : 4+n : 4+n], b[4+n:], nil
}
