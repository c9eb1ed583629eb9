package rosbag

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/bagio"
	"repro/internal/raceenabled"
)

// writeConnPerChunkBag writes chunks of about chunkBytes, each opening
// with the connection record of every topic, so a scan meets each
// connection once per chunk and must keep the first. Only the walk reads
// it (its index section holds the connection records and no chunk
// infos). It returns the bag and its message count.
func writeConnPerChunkBag(t *testing.T, chunks, chunkBytes int, compression string) (*memFile, int) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	conns := []*bagio.Connection{
		{ID: 0, Topic: "/imu", Type: "sensor_msgs/Imu", MD5Sum: "6a62c6daae103f4ff57a132d6f95cec2"},
		{ID: 1, Topic: "/tf", Type: "tf2_msgs/TFMessage", MD5Sum: "94810edda583a504dfda3829e70d7eec"},
	}
	mf := &memFile{}
	rw := bagio.NewRecordWriter(mf)
	check(rw.WriteMagic())
	header, err := (&bagio.BagHeader{}).Encode()
	check(err)
	check(rw.WriteRaw(header))
	n := 0
	for c := 0; c < chunks; c++ {
		var inner bytes.Buffer
		iw := bagio.NewRecordWriter(&inner)
		for _, conn := range conns {
			check(iw.WriteRecord(conn.Encode()))
		}
		for inner.Len() < chunkBytes {
			m := &bagio.MessageData{Conn: uint32(n % 2), Time: bagio.Time{Sec: uint32(1000 + n/10), NSec: uint32(n)}, Data: bytes.Repeat([]byte{byte(n)}, 16+n%64)}
			check(iw.WriteRecord(m.Encode()))
			n++
		}
		rec, err := bagio.EncodeChunk(inner.Bytes(), compression)
		check(err)
		check(rw.WriteRecord(rec))
	}
	indexPos := rw.Offset()
	for _, conn := range conns {
		check(rw.WriteRecord(conn.Encode()))
	}
	header, err = (&bagio.BagHeader{IndexPos: uint64(indexPos), ConnCount: uint32(len(conns)), ChunkCount: uint32(chunks)}).Encode()
	check(err)
	copy(mf.buf[len(bagio.Magic):], header)
	return mf, n
}

// referenceScan is the owned decode the in-place walk must agree with:
// every record read with ReadRecord, a chunk's contents inflated by a
// plain gzip read and split by a scanner of their own, each header into
// a map and each message's fields read from it.
func referenceScan(t *testing.T, buf []byte) []recMsg {
	t.Helper()
	sc := bagio.NewRecordScanner(bytes.NewReader(buf))
	if err := sc.ReadMagic(); err != nil {
		t.Fatal(err)
	}
	first, err := sc.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	bh, err := bagio.DecodeBagHeader(first)
	if err != nil {
		t.Fatal(err)
	}
	conns := map[uint32]*bagio.Connection{}
	var out []recMsg
	visit := func(rec *bagio.Record) {
		op, err := rec.Op()
		if err != nil {
			t.Fatal(err)
		}
		switch op {
		case bagio.OpConnection:
			c, err := bagio.DecodeConnection(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, known := conns[c.ID]; !known {
				conns[c.ID] = c
			}
		case bagio.OpMessageData:
			conn, err := rec.Header.U32(bagio.FieldConn)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := rec.Header.GetTime(bagio.FieldTime)
			if err != nil {
				t.Fatal(err)
			}
			c := conns[conn]
			if c == nil {
				t.Fatalf("message on connection %d before its record", conn)
			}
			out = append(out, recMsg{Topic: c.Topic, Time: ts, Data: rec.Data})
		}
	}
	for uint64(sc.Offset()) < bh.IndexPos {
		rec, err := sc.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		if op, _ := rec.Op(); op != bagio.OpChunk {
			visit(rec)
			continue
		}
		inner := rec.Data
		if comp, _ := rec.Header.String(bagio.FieldCompression); comp == bagio.CompressionGZ {
			zr, err := gzip.NewReader(bytes.NewReader(rec.Data))
			if err != nil {
				t.Fatal(err)
			}
			if inner, err = io.ReadAll(zr); err != nil {
				t.Fatal(err)
			}
		}
		if size, err := rec.Header.U32(bagio.FieldSize); err != nil || uint64(len(inner)) != uint64(size) {
			t.Fatalf("chunk of %d bytes, header size %d (%v)", len(inner), size, err)
		}
		isc := bagio.NewRecordScanner(bytes.NewReader(inner))
		for {
			ir, err := isc.ReadRecord()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			visit(ir)
		}
	}
	return out
}

// TestScanMatchesRecordDecode holds the in-place walk to the owned
// decode: on uncompressed and gz bags, with connections once per bag or
// once per chunk, Scan delivers the same (topic, time, payload)
// sequence.
func TestScanMatchesRecordDecode(t *testing.T) {
	perChunk, _ := writeConnPerChunkBag(t, 20, 4096, bagio.CompressionNone)
	perChunkGZ, _ := writeConnPerChunkBag(t, 20, 4096, bagio.CompressionGZ)
	for _, c := range []struct {
		name string
		mf   *memFile
	}{
		{"none", writeTestBag(t, WriterOptions{ChunkThreshold: 1024}, 90)},
		{"gz", writeTestBag(t, WriterOptions{ChunkThreshold: 1024, Compression: bagio.CompressionGZ}, 90)},
		{"connection per chunk", perChunk},
		{"connection per chunk gz", perChunkGZ},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := referenceScan(t, c.mf.buf)
			var got []recMsg
			if err := Scan(c.mf, int64(len(c.mf.buf)), func(conn *bagio.Connection, ts bagio.Time, data []byte) error {
				got = append(got, recMsg{Topic: conn.Topic, Time: ts, Data: bytes.Clone(data)})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("Scan delivered %d messages, the reference decode %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Topic != want[i].Topic || got[i].Time != want[i].Time || !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("message %d: Scan gave %s @%v (%d bytes), the reference %s @%v (%d bytes)",
						i, got[i].Topic, got[i].Time, len(got[i].Data), want[i].Topic, want[i].Time, len(want[i].Data))
				}
			}
		})
	}
}

// TestAllocBudgetScan holds Scan to its in-place contract: over many
// small chunks, a scan allocates per bag (the scanner, the connection
// table, buffer growth), never per message or chunk.
func TestAllocBudgetScan(t *testing.T) {
	const msgs = 6000
	mf := writeTestBag(t, WriterOptions{ChunkThreshold: 4096}, msgs)
	r, err := OpenReader(mf, int64(len(mf.buf)))
	if err != nil {
		t.Fatal(err)
	}
	chunks := r.ChunkCount()
	if chunks < 150 {
		t.Fatalf("fixture has %d chunks, want at least 150", chunks)
	}
	allocs := testing.AllocsPerRun(3, func() {
		seen := 0
		if err := Scan(mf, int64(len(mf.buf)), func(*bagio.Connection, bagio.Time, []byte) error {
			seen++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if seen != msgs {
			t.Fatalf("scanned %d messages, want %d", seen, msgs)
		}
	})
	perMsg := allocs / float64(msgs)
	t.Logf("%.0f allocs per scan of %d messages in %d chunks (%.4f/message)", allocs, msgs, chunks, perMsg)
	if raceenabled.Enabled {
		t.Log("race detector enabled: skipping strict alloc assertion")
		return
	}
	if perMsg >= 0.05 {
		t.Errorf("%.4f allocs/message; the walk must parse in place", perMsg)
	}
}

// TestAllocBudgetRepeatScan: a pass leaves its scratch — the scanner's
// 64 KiB read buffer and the chunk block it grew to — for the next, so
// a repeat scan of a bag with 128 KiB chunks allocates less than the
// read buffer alone (the least of several repeats: TotalAlloc counts
// every goroutine's allocations).
func TestAllocBudgetRepeatScan(t *testing.T) {
	const msgs = 3000
	mf := writeTestBag(t, WriterOptions{ChunkThreshold: 128 << 10}, msgs)
	scan := func() {
		if err := Scan(mf, int64(len(mf.buf)), func(*bagio.Connection, bagio.Time, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		scan()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a repeat scan of %d messages allocates %d bytes", msgs, least)
	if raceenabled.Enabled {
		t.Log("race detector enabled: skipping strict alloc assertion")
		return
	}
	if least >= 64<<10 {
		t.Errorf("a repeat scan allocates %d bytes, want less than the 64 KiB read buffer", least)
	}
}

// TestAllocBudgetReadMessages pins the stock reader's cost per delivered
// message: each is decoded in place from the cached chunk, so a query
// allocates for its chunks and index entries, not for its messages.
func TestAllocBudgetReadMessages(t *testing.T) {
	const count = 600
	mf := writeTestBag(t, WriterOptions{ChunkThreshold: 4096}, count)
	r, err := OpenReader(mf, int64(len(mf.buf)))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = r.ReadMessages(Query{}, func(MessageRef) error {
		delivered++
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != count {
		t.Fatalf("delivered %d messages, want %d", delivered, count)
	}
	perMsg := float64(after.TotalAlloc-before.TotalAlloc) / count
	t.Logf("%.0f bytes allocated per delivered message", perMsg)
	if raceenabled.Enabled {
		t.Log("race detector enabled: skipping strict alloc assertion")
		return
	}
	if perMsg >= 1024 {
		t.Errorf("%.0f bytes allocated per delivered message, want < 1 KiB", perMsg)
	}
}
