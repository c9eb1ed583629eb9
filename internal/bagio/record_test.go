package bagio

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/raceenabled"
)

func TestBagHeaderRoundTrip(t *testing.T) {
	bh := &BagHeader{IndexPos: 1 << 35, ConnCount: 7, ChunkCount: 99}
	enc, err := bh.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(enc) != BagHeaderLen {
		t.Fatalf("bag header record is %d bytes, want %d", len(enc), BagHeaderLen)
	}
	rs := NewRecordScanner(bytes.NewReader(enc))
	rec, err := rs.ReadRecord()
	if err != nil {
		t.Fatalf("ReadRecord: %v", err)
	}
	op, err := rec.Op()
	if err != nil || op != OpBagHeader {
		t.Fatalf("op = %#x, %v; want OpBagHeader", op, err)
	}
	got, err := DecodeBagHeader(rec)
	if err != nil {
		t.Fatalf("DecodeBagHeader: %v", err)
	}
	if *got != *bh {
		t.Errorf("round trip: got %+v want %+v", got, bh)
	}
}

func TestConnectionRoundTrip(t *testing.T) {
	c := &Connection{
		ID:     3,
		Topic:  "/imu",
		Type:   "sensor_msgs/Imu",
		MD5Sum: "6a62c6daae103f4ff57a132d6f95cec2",
		Def:    "Header header\nfloat64[9] orientation_covariance\n",
		Caller: "/recorder",
		Latch:  true,
	}
	got, err := DecodeConnection(c.Encode())
	if err != nil {
		t.Fatalf("DecodeConnection: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Errorf("round trip:\n in: %+v\nout: %+v", c, got)
	}
}

func TestConnectionTopicRemapPreferred(t *testing.T) {
	c := &Connection{ID: 1, Topic: "/remapped", Type: "std_msgs/String"}
	rec := c.Encode()
	// Overwrite the record-header topic to simulate the pre-remap name.
	rec.Header.PutString(FieldTopic, "/original")
	got, err := DecodeConnection(rec)
	if err != nil {
		t.Fatalf("DecodeConnection: %v", err)
	}
	if got.Topic != "/remapped" {
		t.Errorf("topic = %q, want connection-header value /remapped", got.Topic)
	}
}

// raw is r as a record read in place: its header re-encoded.
func raw(r *Record) RawRecord { return RawRecord{Header: r.Header.Encode(), Data: r.Data} }

// chunkData is ChunkData into a fresh buffer.
func chunkData(r *Record) ([]byte, error) {
	var out []byte
	return raw(r).ChunkData(&out)
}

func TestMessageDataRoundTrip(t *testing.T) {
	m := &MessageData{Conn: 12, Time: Time{Sec: 1000, NSec: 42}, Data: []byte("payload")}
	got, err := raw(m.Encode()).MessageData()
	if err != nil {
		t.Fatalf("MessageData: %v", err)
	}
	if got.Conn != m.Conn || got.Time != m.Time || !bytes.Equal(got.Data, m.Data) {
		t.Errorf("round trip: got %+v want %+v", got, m)
	}
}

func TestIndexDataRoundTrip(t *testing.T) {
	ix := &IndexData{Conn: 5, Entries: []IndexEntry{
		{Time: Time{Sec: 1, NSec: 2}, Offset: 0},
		{Time: Time{Sec: 3, NSec: 4}, Offset: 512},
	}}
	got, err := DecodeIndexData(ix.Encode())
	if err != nil {
		t.Fatalf("DecodeIndexData: %v", err)
	}
	if !reflect.DeepEqual(ix, got) {
		t.Errorf("round trip:\n in: %+v\nout: %+v", ix, got)
	}
}

func TestIndexDataRejectsSizeMismatch(t *testing.T) {
	rec := (&IndexData{Conn: 1, Entries: []IndexEntry{{Offset: 1}}}).Encode()
	rec.Data = rec.Data[:len(rec.Data)-1]
	if _, err := DecodeIndexData(rec); err == nil {
		t.Error("accepted index data with truncated block")
	}
	rec2 := (&IndexData{Conn: 1}).Encode()
	rec2.Header.PutU32(FieldVer, 9)
	if _, err := DecodeIndexData(rec2); err == nil {
		t.Error("accepted unsupported index version")
	}
}

func TestChunkInfoRoundTrip(t *testing.T) {
	ci := &ChunkInfo{
		ChunkPos:  4096,
		StartTime: Time{Sec: 10},
		EndTime:   Time{Sec: 20, NSec: 5},
		Counts:    map[uint32]uint32{0: 3, 2: 7, 1: 1},
	}
	got, err := DecodeChunkInfo(ci.Encode())
	if err != nil {
		t.Fatalf("DecodeChunkInfo: %v", err)
	}
	if !reflect.DeepEqual(ci, got) {
		t.Errorf("round trip:\n in: %+v\nout: %+v", ci, got)
	}
}

func TestChunkRoundTripNone(t *testing.T) {
	inner := bytes.Repeat([]byte("abc123"), 100)
	rec, err := EncodeChunk(inner, CompressionNone)
	if err != nil {
		t.Fatalf("EncodeChunk: %v", err)
	}
	out, err := chunkData(rec)
	if err != nil {
		t.Fatalf("ChunkData: %v", err)
	}
	if !bytes.Equal(inner, out) {
		t.Error("chunk payload mismatch")
	}
}

func TestChunkRoundTripGZ(t *testing.T) {
	inner := bytes.Repeat([]byte("compressible-"), 512)
	rec, err := EncodeChunk(inner, CompressionGZ)
	if err != nil {
		t.Fatalf("EncodeChunk: %v", err)
	}
	if len(rec.Data) >= len(inner) {
		t.Errorf("gz chunk did not compress: %d >= %d", len(rec.Data), len(inner))
	}
	out, err := chunkData(rec)
	if err != nil {
		t.Fatalf("ChunkData: %v", err)
	}
	if !bytes.Equal(inner, out) {
		t.Error("chunk payload mismatch after gz round trip")
	}
}

func TestChunkRejectsUnknownCompression(t *testing.T) {
	if _, err := EncodeChunk([]byte("x"), "bz2"); err == nil {
		t.Error("EncodeChunk accepted unsupported compression")
	}
	rec, _ := EncodeChunk([]byte("x"), CompressionNone)
	rec.Header.PutString(FieldCompression, "lz9")
	if _, err := chunkData(rec); err == nil {
		t.Error("ChunkData accepted unsupported compression")
	}
}

func TestChunkSizeMismatchDetected(t *testing.T) {
	rec, _ := EncodeChunk([]byte("abcdef"), CompressionNone)
	rec.Header.PutU32(FieldSize, 5)
	if _, err := chunkData(rec); err == nil {
		t.Error("ChunkData accepted size mismatch")
	}
}

func TestRecordStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf)
	if err := rw.WriteMagic(); err != nil {
		t.Fatal(err)
	}
	msgs := []*MessageData{
		{Conn: 0, Time: Time{Sec: 1}, Data: []byte("one")},
		{Conn: 1, Time: Time{Sec: 2}, Data: []byte("two")},
		{Conn: 0, Time: Time{Sec: 3}, Data: []byte("three")},
	}
	for _, m := range msgs {
		if err := rw.WriteRecord(m.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if rw.Offset() != int64(buf.Len()) {
		t.Errorf("writer offset %d != buffer len %d", rw.Offset(), buf.Len())
	}

	rs := NewRecordScanner(bytes.NewReader(buf.Bytes()))
	if err := rs.ReadMagic(); err != nil {
		t.Fatal(err)
	}
	for i, want := range msgs {
		rec, err := rs.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		got, err := raw(rec).MessageData()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Conn != want.Conn || got.Time != want.Time || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("record %d mismatch", i)
		}
	}
	if _, err := rs.ReadRecord(); err != io.EOF {
		t.Errorf("expected io.EOF at end, got %v", err)
	}
	if rs.Offset() != int64(buf.Len()) {
		t.Errorf("scanner offset %d != buffer len %d", rs.Offset(), buf.Len())
	}
}

func TestSkipRecord(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf)
	m := &MessageData{Conn: 9, Time: Time{Sec: 7}, Data: bytes.Repeat([]byte{0xAB}, 1000)}
	if err := rw.WriteRecord(m.Encode()); err != nil {
		t.Fatal(err)
	}
	c := (&Connection{ID: 1, Topic: "/t", Type: "x/Y"}).Encode()
	if err := rw.WriteRecord(c); err != nil {
		t.Fatal(err)
	}

	rs := NewRecordScanner(bytes.NewReader(buf.Bytes()))
	op, size, err := rs.SkipRecord()
	if err != nil {
		t.Fatalf("SkipRecord: %v", err)
	}
	if op != OpMessageData {
		t.Errorf("op = %#x, want message data", op)
	}
	if size <= 1000 {
		t.Errorf("size = %d, should include 1000-byte payload plus framing", size)
	}
	rec, err := rs.ReadRecord()
	if err != nil {
		t.Fatalf("ReadRecord after skip: %v", err)
	}
	if op, _ := rec.Op(); op != OpConnection {
		t.Errorf("second record op = %#x, want connection", op)
	}
}

func TestScannerRejectsBadMagic(t *testing.T) {
	rs := NewRecordScanner(bytes.NewReader([]byte("#ROSBAG V1.2\n...")))
	if err := rs.ReadMagic(); err == nil {
		t.Error("accepted wrong magic")
	}
	rs = NewRecordScanner(bytes.NewReader(nil))
	if err := rs.ReadMagic(); err == nil {
		t.Error("accepted empty stream")
	}
}

// TestReadRecordAllocatesItsSize pins the framing cost: a record is read
// into one block of exactly its size, and a skipped one is not held.
func TestReadRecordAllocatesItsSize(t *testing.T) {
	const size = 768 << 10
	rec, err := EncodeChunk(make([]byte, size), CompressionNone)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf)
	for i := 0; i < 2; i++ {
		if err := rw.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if raceenabled.Enabled {
		t.Skip("race detector enabled: allocation sizes differ")
	}
	// The least of several repeats: TotalAlloc is process-wide, so a
	// single measurement also counts whatever another goroutine (the
	// runtime's, another test's) allocated meanwhile. Each repeat runs
	// on a fresh scanner, after first (unmeasured) when it is given.
	least := func(first, f func(rs *RecordScanner) error) uint64 {
		best := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			rs := NewRecordScanner(bytes.NewReader(buf.Bytes()))
			if first != nil {
				if err := first(rs); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := f(rs); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	read := func(rs *RecordScanner) error { _, err := rs.ReadRecord(); return err }
	skip := func(rs *RecordScanner) error { _, _, err := rs.SkipRecord(); return err }
	if got := least(nil, read); got > size*11/10 {
		t.Errorf("reading a %d-byte record allocated %d bytes, want at most 1.1x", size, got)
	}
	if got := least(read, skip); got > 4<<10 {
		t.Errorf("skipping a %d-byte record allocated %d bytes", size, got)
	}
}

func TestScannerRejectsOversizeRecord(t *testing.T) {
	// Header length prefix claims 2 GiB.
	in := []byte{0, 0, 0, 0x80}
	rs := NewRecordScanner(bytes.NewReader(in))
	if _, err := rs.ReadRecord(); err == nil {
		t.Error("accepted oversize header length")
	}
}

func TestScannerTruncatedData(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf)
	m := &MessageData{Conn: 0, Time: Time{Sec: 1}, Data: []byte("payload")}
	if err := rw.WriteRecord(m.Encode()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	rs := NewRecordScanner(bytes.NewReader(trunc))
	if _, err := rs.ReadRecord(); err == nil {
		t.Error("accepted truncated record")
	}
}

// Property: any message survives encode → stream write → stream read.
func TestMessageStreamQuick(t *testing.T) {
	f := func(conn uint32, sec uint32, nsec uint16, payload []byte) bool {
		m := &MessageData{Conn: conn, Time: Time{Sec: sec, NSec: uint32(nsec)}, Data: payload}
		var buf bytes.Buffer
		rw := NewRecordWriter(&buf)
		if err := rw.WriteRecord(m.Encode()); err != nil {
			return false
		}
		rs := NewRecordScanner(bytes.NewReader(buf.Bytes()))
		rec, err := rs.ReadRecord()
		if err != nil {
			return false
		}
		got, err := raw(rec).MessageData()
		if err != nil {
			return false
		}
		return got.Conn == m.Conn && got.Time == m.Time && bytes.Equal(got.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
