package bagio

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// seedRecords returns one valid encoded record of every op type, for use
// as fuzz seed corpus.
func seedRecords(t testingF) [][]byte {
	bh, err := (&BagHeader{IndexPos: 4117, ConnCount: 2, ChunkCount: 1}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(r *Record) []byte {
		var buf bytes.Buffer
		rw := NewRecordWriter(&buf)
		if err := rw.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	conn := (&Connection{ID: 0, Topic: "/imu", Type: "sensor_msgs/Imu", MD5Sum: "abc", Def: "float64 x"}).Encode()
	msg := (&MessageData{Conn: 0, Time: Time{Sec: 10, NSec: 500}, Data: []byte("payload")}).Encode()
	ix := (&IndexData{Conn: 0, Entries: []IndexEntry{
		{Time: Time{Sec: 10, NSec: 500}, Offset: 0},
		{Time: Time{Sec: 11, NSec: 0}, Offset: 64},
	}}).Encode()
	ci := (&ChunkInfo{ChunkPos: 4117, StartTime: Time{Sec: 10}, EndTime: Time{Sec: 11},
		Counts: map[uint32]uint32{0: 2}}).Encode()
	chunkNone, err := EncodeChunk([]byte("inner records"), CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	chunkGZ, err := EncodeChunk(bytes.Repeat([]byte("inner "), 32), CompressionGZ)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		bh,
		encode(conn),
		encode(msg),
		encode(ix),
		encode(ci),
		encode(chunkNone),
		encode(chunkGZ),
	}
}

// testingF is the subset of *testing.F seedRecords needs (lets the helper
// also serve plain tests).
type testingF interface{ Fatal(args ...any) }

// decodeByOp drives every typed decoder reachable from a raw record; the
// fuzz targets call it to make corrupt records exercise the full decode
// surface, not just the framing.
func decodeByOp(r *Record) {
	op, err := r.Op()
	if err != nil {
		return
	}
	switch op {
	case OpBagHeader:
		DecodeBagHeader(r)
	case OpConnection:
		DecodeConnection(r)
	case OpMessageData:
		raw(r).MessageData()
	case OpIndexData:
		DecodeIndexData(r)
	case OpChunkInfo:
		DecodeChunkInfo(r)
	case OpChunk:
		if inner, err := chunkData(r); err == nil {
			// Inner records are themselves a record stream, split in place.
			for i := 0; i < 64; i++ {
				raw, rest, err := SplitRecord(inner)
				if err != nil {
					break
				}
				inner = rest
				if h, err := DecodeHeader(raw.Header); err == nil {
					decodeByOp(&Record{Header: h, Data: raw.Data})
				}
			}
		}
	}
}

// referenceChunk decodes a chunk's contents apart from ChunkData, through
// the header map and a plain gzip read, to be held against it.
func referenceChunk(r *Record) ([]byte, error) {
	comp, err := r.Header.String(FieldCompression)
	if err != nil {
		return nil, err
	}
	size, err := r.Header.U32(FieldSize)
	if err != nil {
		return nil, err
	}
	out := r.Data
	switch comp {
	case CompressionNone:
	case CompressionGZ:
		zr, err := gzip.NewReader(bytes.NewReader(r.Data))
		if err != nil {
			return nil, err
		}
		if out, err = io.ReadAll(io.LimitReader(zr, int64(size)+1)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("compression %q", comp)
	}
	if uint64(len(out)) != uint64(size) {
		return nil, fmt.Errorf("chunk is %d bytes, header says %d", len(out), size)
	}
	return out, nil
}

// FuzzRawRecord holds the in-place path to the owned one over arbitrary
// bytes. The header walker rejects exactly what DecodeHeader rejects;
// ReadRaw and SplitRecord frame exactly the records ReadRecord frames;
// the in-place accessors accept exactly the records the typed decoders
// accept, with the same op, conn, time and data; and ChunkData agrees
// with referenceChunk.
func FuzzRawRecord(f *testing.F) {
	var stream bytes.Buffer
	for _, rec := range seedRecords(f) {
		f.Add(rec)
		stream.Write(rec)
	}
	f.Add(stream.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, b []byte) {
		_, decErr := DecodeHeader(b)
		if walkErr := walkHeader(b, func(_, _ []byte) {}); (walkErr == nil) != (decErr == nil) {
			t.Fatalf("header walker says %v, DecodeHeader says %v", walkErr, decErr)
		}
		owned := NewRecordScanner(bytes.NewReader(b))
		borrowed := NewRecordScanner(bytes.NewReader(b))
		rest := b
		var scratch []byte
		for i := 0; i < 64; i++ {
			rec, err := owned.ReadRecord()
			raw, rawErr := borrowed.ReadRaw()
			split, next, splitErr := SplitRecord(rest)
			rest = next
			if (rawErr == nil) != (splitErr == nil) || (rawErr == io.EOF) != (splitErr == io.EOF) {
				t.Fatalf("record %d: ReadRaw says %v, SplitRecord says %v", i, rawErr, splitErr)
			}
			if rawErr != nil {
				if err == nil || (err == io.EOF) != (rawErr == io.EOF) {
					t.Fatalf("record %d: ReadRecord says %v, ReadRaw says %v", i, err, rawErr)
				}
				return
			}
			if !bytes.Equal(raw.Header, split.Header) || !bytes.Equal(raw.Data, split.Data) {
				t.Fatalf("record %d: ReadRaw and SplitRecord framed different bytes", i)
			}
			// ReadRecord decodes the header too; the in-place forms leave
			// that to their accessors.
			_, headerErr := DecodeHeader(raw.Header)
			if (err == nil) != (headerErr == nil) {
				t.Fatalf("record %d: ReadRecord says %v, the header decodes with %v", i, err, headerErr)
			}
			if err != nil {
				return
			}
			op, opErr := raw.Header.Op()
			wantOp, wantOpErr := rec.Op()
			if (opErr == nil) != (wantOpErr == nil) || op != wantOp {
				t.Fatalf("record %d: op %#x, %v in place; %#x, %v owned", i, op, opErr, wantOp, wantOpErr)
			}
			conn, connErr := raw.Header.U32(FieldConn)
			wantConn, wantConnErr := rec.Header.U32(FieldConn)
			if (connErr == nil) != (wantConnErr == nil) || conn != wantConn {
				t.Fatalf("record %d: conn %d, %v in place; %d, %v owned", i, conn, connErr, wantConn, wantConnErr)
			}
			md, mdErr := raw.MessageData()
			wantTime, wantTimeErr := rec.Header.GetTime(FieldTime)
			if (mdErr == nil) != (wantConnErr == nil && wantTimeErr == nil) {
				t.Fatalf("record %d: message %v in place; conn %v, time %v owned", i, mdErr, wantConnErr, wantTimeErr)
			}
			if mdErr == nil && (md.Conn != wantConn || md.Time != wantTime || !bytes.Equal(md.Data, rec.Data)) {
				t.Fatalf("record %d: message %+v in place; conn %d, time %v owned", i, md, wantConn, wantTime)
			}
			inner, chunkErr := raw.ChunkData(&scratch)
			wantInner, wantChunkErr := referenceChunk(rec)
			if (chunkErr == nil) != (wantChunkErr == nil) || !bytes.Equal(inner, wantInner) {
				t.Fatalf("record %d: chunk %v in place, %v owned", i, chunkErr, wantChunkErr)
			}
		}
	})
}

// FuzzParseHeader feeds arbitrary bytes to the header field parser. A
// header that decodes must re-encode and decode back to the same fields
// (the parser and printer agree), and the typed accessors must never
// panic regardless of field lengths.
func FuzzParseHeader(f *testing.F) {
	for _, rec := range seedRecords(f) {
		if len(rec) >= 8 {
			// Strip the length prefix: the header block starts at byte 4.
			f.Add(rec[4:])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 'a', '=', 'b'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '='})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeHeader(b)
		if err != nil {
			return
		}
		// Accessors must tolerate any field lengths.
		h.Op()
		for _, name := range []string{FieldConn, FieldCount, FieldSize, FieldVer} {
			h.U32(name)
		}
		h.U64(FieldIndexPos)
		h.GetTime(FieldTime)
		h.String(FieldTopic)
		// Round trip: encode is canonical, so decode(encode(h)) == h.
		h2, err := DecodeHeader(h.Encode())
		if err != nil {
			t.Fatalf("re-decode of encoded header failed: %v", err)
		}
		if !reflect.DeepEqual(h, h2) {
			t.Fatalf("header round trip drifted:\n%v\n%v", h, h2)
		}
	})
}

// FuzzReadRecord scans arbitrary bytes as a record stream and pushes every
// record that frames correctly through the typed decoders (including
// recursing into chunks). Nothing here may panic or allocate
// proportionally to a corrupt length prefix.
func FuzzReadRecord(f *testing.F) {
	var whole bytes.Buffer
	whole.WriteString(Magic)
	for _, rec := range seedRecords(f) {
		f.Add(rec)
		whole.Write(rec)
	}
	f.Add(whole.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, b []byte) {
		rs := NewRecordScanner(bytes.NewReader(b))
		// The stream may or may not lead with the magic.
		if bytes.HasPrefix(b, []byte(Magic)) {
			if err := rs.ReadMagic(); err != nil {
				t.Fatalf("magic-prefixed stream rejected: %v", err)
			}
		}
		for i := 0; i < 256; i++ {
			r, err := rs.ReadRecord()
			if err != nil {
				break
			}
			decodeByOp(r)
		}
		// SkipRecord must agree with ReadRecord on framing.
		rs2 := NewRecordScanner(bytes.NewReader(b))
		for i := 0; i < 256; i++ {
			if _, _, err := rs2.SkipRecord(); err != nil {
				break
			}
		}
	})
}

// FuzzRawHeaderMessage: for any header bytes, the one-walk Message reads
// what Op, U32(FieldConn) and GetTime(FieldTime) read one walk each, and
// fails exactly where they would: the op always, conn and time for a
// message-data record only.
func FuzzRawHeaderMessage(f *testing.F) {
	for _, rec := range seedRecords(f) {
		if raw, _, err := SplitRecord(rec); err == nil {
			f.Add([]byte(raw.Header))
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		h := RawHeader(b)
		op, conn, tm, err := h.Message()
		wantOp, wantErr := h.Op()
		if wantErr == nil && wantOp == OpMessageData {
			var connErr, timeErr error
			var wantConn uint32
			var wantTime Time
			wantConn, connErr = h.U32(FieldConn)
			if connErr == nil {
				wantTime, timeErr = h.GetTime(FieldTime)
			}
			if wantErr = connErr; wantErr == nil {
				wantErr = timeErr
			}
			if wantErr == nil && (conn != wantConn || tm != wantTime) {
				t.Fatalf("Message read conn %d, time %v; the field reads %d, %v", conn, tm, wantConn, wantTime)
			}
		}
		if (err == nil) != (wantErr == nil) || err == nil && op != wantOp {
			t.Fatalf("Message: op %#x, %v; the field reads: op %#x, %v", op, err, wantOp, wantErr)
		}
	})
}
