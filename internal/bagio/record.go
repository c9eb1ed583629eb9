package bagio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// Record is a raw bag record: a decoded header plus its opaque data block.
type Record struct {
	Header Header
	Data   []byte
}

// Op returns the record's op code.
func (r *Record) Op() (byte, error) { return r.Header.Op() }

// RawRecord is a record read in place: its header is still encoded, and
// both slices alias the buffer the record was read from.
type RawRecord struct {
	Header RawHeader
	Data   []byte
}

// BagHeader is the op=0x03 record: file-level metadata written at the
// front of the bag and patched after indexing completes.
type BagHeader struct {
	IndexPos   uint64 // offset of the first record after the chunk section
	ConnCount  uint32 // number of unique connections
	ChunkCount uint32 // number of chunk records
}

// Encode renders the bag header as a fixed-size padded record per the
// spec: the record (header+data) occupies exactly BagHeaderLen bytes, the
// data block being space padding.
func (bh *BagHeader) Encode() ([]byte, error) {
	h := make(Header)
	h.SetOp(OpBagHeader)
	h.PutU64(FieldIndexPos, bh.IndexPos)
	h.PutU32(FieldConnCount, bh.ConnCount)
	h.PutU32(FieldChunkCount, bh.ChunkCount)
	hb := h.Encode()
	// Total record = 4 (header len) + len(hb) + 4 (data len) + padding.
	pad := BagHeaderLen - 4 - len(hb) - 4
	if pad < 0 {
		return nil, fmt.Errorf("bagio: bag header of %d bytes exceeds fixed record size %d", len(hb), BagHeaderLen)
	}
	buf := make([]byte, 0, BagHeaderLen)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(hb)))
	buf = append(buf, lenb[:]...)
	buf = append(buf, hb...)
	binary.LittleEndian.PutUint32(lenb[:], uint32(pad))
	buf = append(buf, lenb[:]...)
	buf = append(buf, bytes.Repeat([]byte{' '}, pad)...)
	return buf, nil
}

// DecodeBagHeader extracts bag-level metadata from an op=0x03 record.
func DecodeBagHeader(r *Record) (*BagHeader, error) {
	var bh BagHeader
	var err error
	if bh.IndexPos, err = r.Header.U64(FieldIndexPos); err != nil {
		return nil, err
	}
	if bh.ConnCount, err = r.Header.U32(FieldConnCount); err != nil {
		return nil, err
	}
	if bh.ChunkCount, err = r.Header.U32(FieldChunkCount); err != nil {
		return nil, err
	}
	return &bh, nil
}

// Connection is the op=0x07 record: metadata about one topic connection.
// The data block is itself an encoded header (the "connection header")
// carrying topic, type, md5sum and message definition.
type Connection struct {
	ID     uint32
	Topic  string
	Type   string // message type name, e.g. "sensor_msgs/Image"
	MD5Sum string
	Def    string // full message definition text
	Caller string // caller id of the publishing node
	Latch  bool
}

// Encode renders the connection as a record.
func (c *Connection) Encode() *Record {
	h := make(Header)
	h.SetOp(OpConnection)
	h.PutU32(FieldConn, c.ID)
	h.PutString(FieldTopic, c.Topic)

	ch := make(Header)
	ch.PutString("topic", c.Topic)
	ch.PutString("type", c.Type)
	ch.PutString("md5sum", c.MD5Sum)
	ch.PutString("message_definition", c.Def)
	if c.Caller != "" {
		ch.PutString("callerid", c.Caller)
	}
	if c.Latch {
		ch.PutString("latching", "1")
	}
	return &Record{Header: h, Data: ch.Encode()}
}

// DecodeConnection extracts connection metadata from an op=0x07 record.
func DecodeConnection(r *Record) (*Connection, error) {
	var c Connection
	var err error
	if c.ID, err = r.Header.U32(FieldConn); err != nil {
		return nil, err
	}
	if c.Topic, err = r.Header.String(FieldTopic); err != nil {
		return nil, err
	}
	ch, err := DecodeHeader(r.Data)
	if err != nil {
		return nil, fmt.Errorf("bagio: connection %d data: %w", c.ID, err)
	}
	// topic in the connection header may differ under remapping; prefer it
	// when present, as rosbag does.
	if t, err := ch.String("topic"); err == nil && t != "" {
		c.Topic = t
	}
	c.Type, _ = ch.String("type")
	c.MD5Sum, _ = ch.String("md5sum")
	c.Def, _ = ch.String("message_definition")
	c.Caller, _ = ch.String("callerid")
	if l, err := ch.String("latching"); err == nil && l == "1" {
		c.Latch = true
	}
	return &c, nil
}

// MessageData is the op=0x02 record: one serialized message.
type MessageData struct {
	Conn uint32
	Time Time
	Data []byte
}

// Encode renders the message as a record.
func (m *MessageData) Encode() *Record {
	h := make(Header)
	h.SetOp(OpMessageData)
	h.PutU32(FieldConn, m.Conn)
	h.PutTime(FieldTime, m.Time)
	return &Record{Header: h, Data: m.Data}
}

// MessageData extracts a message from an op=0x02 record read in place.
// The Data slice aliases the record's data block.
func (r RawRecord) MessageData() (MessageData, error) {
	var m MessageData
	var err error
	if m.Conn, err = r.Header.U32(FieldConn); err != nil {
		return m, err
	}
	if m.Time, err = r.Header.GetTime(FieldTime); err != nil {
		return m, err
	}
	m.Data = r.Data
	return m, nil
}

// IndexEntry is one entry of an index-data record: the receive time of a
// message and its byte offset within the (uncompressed) chunk data.
type IndexEntry struct {
	Time   Time
	Offset uint32
}

// IndexData is the op=0x04 record: the index of one connection's messages
// within the immediately preceding chunk.
type IndexData struct {
	Conn    uint32
	Entries []IndexEntry
}

// Encode renders the index as a record.
func (ix *IndexData) Encode() *Record {
	h := make(Header)
	h.SetOp(OpIndexData)
	h.PutU32(FieldVer, 1)
	h.PutU32(FieldConn, ix.Conn)
	h.PutU32(FieldCount, uint32(len(ix.Entries)))
	data := make([]byte, 0, 12*len(ix.Entries))
	var b [12]byte
	for _, e := range ix.Entries {
		binary.LittleEndian.PutUint32(b[0:4], e.Time.Sec)
		binary.LittleEndian.PutUint32(b[4:8], e.Time.NSec)
		binary.LittleEndian.PutUint32(b[8:12], e.Offset)
		data = append(data, b[:]...)
	}
	return &Record{Header: h, Data: data}
}

// DecodeIndexData extracts an index from an op=0x04 record.
func DecodeIndexData(r *Record) (*IndexData, error) {
	ver, err := r.Header.U32(FieldVer)
	if err != nil {
		return nil, err
	}
	if ver != 1 {
		return nil, fmt.Errorf("bagio: index data version %d unsupported", ver)
	}
	var ix IndexData
	if ix.Conn, err = r.Header.U32(FieldConn); err != nil {
		return nil, err
	}
	count, err := r.Header.U32(FieldCount)
	if err != nil {
		return nil, err
	}
	// Compare in uint64: count*12 would wrap in uint32 arithmetic, letting a
	// huge count match a small data block and over-allocate below.
	if uint64(len(r.Data)) != uint64(count)*12 {
		return nil, fmt.Errorf("bagio: index data block is %d bytes, want %d for %d entries", len(r.Data), uint64(count)*12, count)
	}
	ix.Entries = make([]IndexEntry, count)
	for i := range ix.Entries {
		b := r.Data[i*12:]
		ix.Entries[i] = IndexEntry{
			Time:   Time{Sec: binary.LittleEndian.Uint32(b[0:4]), NSec: binary.LittleEndian.Uint32(b[4:8])},
			Offset: binary.LittleEndian.Uint32(b[8:12]),
		}
	}
	return &ix, nil
}

// ChunkInfo is the op=0x06 record: a summary of one chunk, written in the
// index section at the end of the bag.
type ChunkInfo struct {
	ChunkPos  uint64 // file offset of the chunk record
	StartTime Time   // earliest message receive time in the chunk
	EndTime   Time   // latest message receive time in the chunk
	Counts    map[uint32]uint32
}

// Encode renders the chunk info as a record.
func (ci *ChunkInfo) Encode() *Record {
	h := make(Header)
	h.SetOp(OpChunkInfo)
	h.PutU32(FieldVer, 1)
	h.PutU64(FieldChunkPos, ci.ChunkPos)
	h.PutTime(FieldStartTime, ci.StartTime)
	h.PutTime(FieldEndTime, ci.EndTime)
	h.PutU32(FieldCount, uint32(len(ci.Counts)))
	conns := make([]uint32, 0, len(ci.Counts))
	for c := range ci.Counts {
		conns = append(conns, c)
	}
	// Sorted for deterministic output.
	for i := 1; i < len(conns); i++ {
		for j := i; j > 0 && conns[j] < conns[j-1]; j-- {
			conns[j], conns[j-1] = conns[j-1], conns[j]
		}
	}
	data := make([]byte, 0, 8*len(conns))
	var b [8]byte
	for _, c := range conns {
		binary.LittleEndian.PutUint32(b[0:4], c)
		binary.LittleEndian.PutUint32(b[4:8], ci.Counts[c])
		data = append(data, b[:]...)
	}
	return &Record{Header: h, Data: data}
}

// DecodeChunkInfo extracts a chunk summary from an op=0x06 record.
func DecodeChunkInfo(r *Record) (*ChunkInfo, error) {
	ver, err := r.Header.U32(FieldVer)
	if err != nil {
		return nil, err
	}
	if ver != 1 {
		return nil, fmt.Errorf("bagio: chunk info version %d unsupported", ver)
	}
	var ci ChunkInfo
	if ci.ChunkPos, err = r.Header.U64(FieldChunkPos); err != nil {
		return nil, err
	}
	if ci.StartTime, err = r.Header.GetTime(FieldStartTime); err != nil {
		return nil, err
	}
	if ci.EndTime, err = r.Header.GetTime(FieldEndTime); err != nil {
		return nil, err
	}
	count, err := r.Header.U32(FieldCount)
	if err != nil {
		return nil, err
	}
	// Compare in uint64: count*8 wraps in uint32 arithmetic (same class of
	// overflow as DecodeIndexData).
	if uint64(len(r.Data)) != uint64(count)*8 {
		return nil, fmt.Errorf("bagio: chunk info block is %d bytes, want %d for %d connections", len(r.Data), uint64(count)*8, count)
	}
	ci.Counts = make(map[uint32]uint32, count)
	for i := uint32(0); i < count; i++ {
		b := r.Data[i*8:]
		ci.Counts[binary.LittleEndian.Uint32(b[0:4])] = binary.LittleEndian.Uint32(b[4:8])
	}
	return &ci, nil
}

// EncodeChunk wraps raw (already concatenated) inner-record bytes in a
// chunk record, compressing per the requested scheme.
func EncodeChunk(inner []byte, compression string) (*Record, error) {
	h := make(Header)
	h.SetOp(OpChunk)
	h.PutString(FieldCompression, compression)
	h.PutU32(FieldSize, uint32(len(inner)))
	switch compression {
	case CompressionNone:
		return &Record{Header: h, Data: inner}, nil
	case CompressionGZ:
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(inner); err != nil {
			return nil, fmt.Errorf("bagio: compress chunk: %w", err)
		}
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("bagio: compress chunk: %w", err)
		}
		return &Record{Header: h, Data: buf.Bytes()}, nil
	default:
		return nil, fmt.Errorf("bagio: unsupported chunk compression %q", compression)
	}
}

// ChunkData returns the inner-record bytes of a chunk read in place: an
// uncompressed chunk's are r.Data itself, a compressed one's inflate
// into *scratch, which grows as needed and is reused by later calls.
func (r RawRecord) ChunkData(scratch *[]byte) ([]byte, error) {
	comp, ok, err := r.Header.field(FieldCompression)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errMissing(FieldCompression)
	}
	size, err := r.Header.U32(FieldSize)
	if err != nil {
		return nil, err
	}
	switch string(comp) {
	case CompressionNone:
		if uint64(len(r.Data)) != uint64(size) {
			return nil, fmt.Errorf("bagio: uncompressed chunk is %d bytes, header says %d", len(r.Data), size)
		}
		return r.Data, nil
	case CompressionGZ:
		if size > MaxRecordLen {
			return nil, fmt.Errorf("bagio: chunk uncompressed size %d exceeds limit", size)
		}
		zr, err := gzip.NewReader(bytes.NewReader(r.Data))
		if err != nil {
			return nil, fmt.Errorf("bagio: decompress chunk: %w", err)
		}
		// The size field is untrusted until the stream yields that many
		// bytes (readN grows as they arrive), and the stream must end
		// there: one more read reports EOF, or the checksum failure.
		out, err := readN(zr, (*scratch)[:0], int(size))
		*scratch = out
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return nil, fmt.Errorf("bagio: decompressed chunk is %d bytes, header says %d", len(out), size)
		case err != nil:
			return nil, fmt.Errorf("bagio: decompress chunk: %w", err)
		}
		var one [1]byte
		switch _, err := io.ReadFull(zr, one[:]); err {
		case io.EOF:
			return out, nil
		case nil:
			return nil, fmt.Errorf("bagio: decompressed chunk is longer than the %d bytes its header says", size)
		default:
			return nil, fmt.Errorf("bagio: decompress chunk: %w", err)
		}
	default:
		return nil, fmt.Errorf("bagio: unsupported chunk compression %q", comp)
	}
}
