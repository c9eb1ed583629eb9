// Package rosbag implements a rosbag-equivalent recorder and reader over
// the bag v2.0 format of internal/bagio. The Reader deliberately
// reproduces the stock rosbag access path that the BORA paper uses as its
// control group: open traverses the chunk-info list (O(N) in the number
// of chunks), and time-range queries merge-sort per-connection index
// entries before seeking into chunks (O(N log N) in the number of
// messages). Instrumentation counters expose the op counts those costs
// come from.
package rosbag

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bagio"
	"repro/internal/msgdef"
	"repro/internal/msgs"
)

// DefaultChunkThreshold is the uncompressed chunk size at which the
// writer seals a chunk, matching the rosbag default of 768 KiB.
const DefaultChunkThreshold = 768 * 1024

// WriterOptions configure bag recording.
type WriterOptions struct {
	// ChunkThreshold is the uncompressed byte size at which a chunk is
	// sealed. Zero selects DefaultChunkThreshold.
	ChunkThreshold int
	// Compression is the chunk compression scheme (bagio.CompressionNone
	// or bagio.CompressionGZ). Empty selects none.
	Compression string
}

func (o *WriterOptions) fill() {
	if o.ChunkThreshold <= 0 {
		o.ChunkThreshold = DefaultChunkThreshold
	}
	if o.Compression == "" {
		o.Compression = bagio.CompressionNone
	}
}

// Writer records messages into a bag file.
type Writer struct {
	ws   io.WriteSeeker
	rw   *bagio.RecordWriter
	opts WriterOptions

	conns      []*bagio.Connection
	connByKey  map[string]uint32 // topic + "\x00" + type -> conn id
	chunkBuf   []byte
	chunkIndex map[uint32][]bagio.IndexEntry
	chunkStart bagio.Time
	chunkEnd   bagio.Time
	chunkInfos []*bagio.ChunkInfo
	msgCount   uint64
	closed     bool
}

// NewWriter starts a bag on ws. The stream must start empty; the bag
// header is patched in place during Close, which is why a seeker is
// required.
func NewWriter(ws io.WriteSeeker, opts WriterOptions) (*Writer, error) {
	opts.fill()
	w := &Writer{
		ws:         ws,
		rw:         bagio.NewRecordWriter(ws),
		opts:       opts,
		connByKey:  map[string]uint32{},
		chunkIndex: map[uint32][]bagio.IndexEntry{},
	}
	if err := w.rw.WriteMagic(); err != nil {
		return nil, fmt.Errorf("rosbag: write magic: %w", err)
	}
	// Placeholder bag header; patched on Close.
	hdr, err := (&bagio.BagHeader{}).Encode()
	if err != nil {
		return nil, err
	}
	if err := w.rw.WriteRaw(hdr); err != nil {
		return nil, fmt.Errorf("rosbag: write bag header: %w", err)
	}
	return w, nil
}

// Create opens path for writing and starts a bag on it. Close closes the
// file.
func Create(path string, opts WriterOptions) (*Writer, *os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w, err := NewWriter(f, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, f, nil
}

// AddConnection registers a topic/type pair and returns its connection
// id. Registering the same pair twice returns the existing id. The
// message definition and MD5 are filled from msgdef when known; a
// caller that already holds the connection's metadata (copying from
// another bag or a container) uses RegisterConnection instead, so
// nothing msgdef does not know is lost.
func (w *Writer) AddConnection(topic, msgType string) (uint32, error) {
	// WriteMsg asks per message: answer a known pair before deriving
	// anything (a closed writer falls through to the error below).
	if id, ok := w.connByKey[topic+"\x00"+msgType]; ok && !w.closed {
		return id, nil
	}
	c := &bagio.Connection{Topic: topic, Type: msgType}
	if sum, err := msgdef.MD5(msgType); err == nil {
		c.MD5Sum = sum
	}
	if def, err := msgdef.FullText(msgType); err == nil {
		c.Def = def
	}
	return w.RegisterConnection(c)
}

// RegisterConnection registers a copy of src — every field but the id,
// which the writer assigns — and returns that id. Registering the same
// topic/type pair twice returns the existing id.
func (w *Writer) RegisterConnection(src *bagio.Connection) (uint32, error) {
	if w.closed {
		return 0, fmt.Errorf("rosbag: writer is closed")
	}
	key := src.Topic + "\x00" + src.Type
	if id, ok := w.connByKey[key]; ok {
		return id, nil
	}
	c := *src
	c.ID = uint32(len(w.conns))
	w.conns = append(w.conns, &c)
	w.connByKey[key] = c.ID
	// Connection records live both inside chunks (so chunks are
	// self-describing) and in the index section (written on Close).
	w.appendToChunk(c.Encode())
	return c.ID, nil
}

// appendToChunk encodes rec into the current chunk buffer and returns the
// record's offset within the uncompressed chunk data.
func (w *Writer) appendToChunk(rec *bagio.Record) uint32 {
	off := uint32(len(w.chunkBuf))
	hb := rec.Header.Encode()
	w.chunkBuf = appendU32(w.chunkBuf, uint32(len(hb)))
	w.chunkBuf = append(w.chunkBuf, hb...)
	w.chunkBuf = appendU32(w.chunkBuf, uint32(len(rec.Data)))
	w.chunkBuf = append(w.chunkBuf, rec.Data...)
	return off
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// WriteMessage appends one serialized message on an existing connection.
func (w *Writer) WriteMessage(conn uint32, t bagio.Time, data []byte) error {
	if w.closed {
		return fmt.Errorf("rosbag: writer is closed")
	}
	if int(conn) >= len(w.conns) {
		return fmt.Errorf("rosbag: unknown connection %d", conn)
	}
	md := &bagio.MessageData{Conn: conn, Time: t, Data: data}
	off := w.appendToChunk(md.Encode())
	w.chunkIndex[conn] = append(w.chunkIndex[conn], bagio.IndexEntry{Time: t, Offset: off})
	if w.msgCountInChunk() == 1 || t.Before(w.chunkStart) {
		w.chunkStart = t
	}
	if w.chunkEnd.Before(t) {
		w.chunkEnd = t
	}
	w.msgCount++
	if len(w.chunkBuf) >= w.opts.ChunkThreshold {
		return w.flushChunk()
	}
	return nil
}

func (w *Writer) msgCountInChunk() int {
	n := 0
	for _, es := range w.chunkIndex {
		n += len(es)
	}
	return n
}

// WriteMsg marshals m and appends it on the topic, creating the
// connection as needed.
func (w *Writer) WriteMsg(topic string, t bagio.Time, m msgs.Message) error {
	conn, err := w.AddConnection(topic, m.TypeName())
	if err != nil {
		return err
	}
	return w.WriteMessage(conn, t, m.Marshal(nil))
}

// flushChunk seals the current chunk: writes the chunk record followed by
// one index-data record per connection, and remembers the chunk info.
func (w *Writer) flushChunk() error {
	if len(w.chunkBuf) == 0 {
		return nil
	}
	chunkPos := uint64(w.rw.Offset())
	rec, err := bagio.EncodeChunk(w.chunkBuf, w.opts.Compression)
	if err != nil {
		return err
	}
	if err := w.rw.WriteRecord(rec); err != nil {
		return fmt.Errorf("rosbag: write chunk: %w", err)
	}
	ci := &bagio.ChunkInfo{
		ChunkPos:  chunkPos,
		StartTime: w.chunkStart,
		EndTime:   w.chunkEnd,
		Counts:    map[uint32]uint32{},
	}
	conns := make([]uint32, 0, len(w.chunkIndex))
	for c := range w.chunkIndex {
		conns = append(conns, c)
	}
	sort.Slice(conns, func(i, j int) bool { return conns[i] < conns[j] })
	for _, c := range conns {
		entries := w.chunkIndex[c]
		ci.Counts[c] = uint32(len(entries))
		ix := &bagio.IndexData{Conn: c, Entries: entries}
		if err := w.rw.WriteRecord(ix.Encode()); err != nil {
			return fmt.Errorf("rosbag: write index data: %w", err)
		}
	}
	w.chunkInfos = append(w.chunkInfos, ci)
	w.chunkBuf = w.chunkBuf[:0]
	w.chunkIndex = map[uint32][]bagio.IndexEntry{}
	w.chunkStart, w.chunkEnd = bagio.Time{}, bagio.Time{}
	return nil
}

// MessageCount returns the number of messages written so far.
func (w *Writer) MessageCount() uint64 { return w.msgCount }

// Seal commits the bag (Close under core.RecordSink's name), making
// *Writer a drop-in recording destination alongside core.Recorder.
// The underlying file, which the Writer does not own, is still the
// caller's to close.
func (w *Writer) Seal() error { return w.Close() }

// Close seals the last chunk, writes the index section (connection
// records then chunk-info records) and patches the bag header.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushChunk(); err != nil {
		return err
	}
	indexPos := uint64(w.rw.Offset())
	for _, c := range w.conns {
		if err := w.rw.WriteRecord(c.Encode()); err != nil {
			return fmt.Errorf("rosbag: write connection record: %w", err)
		}
	}
	for _, ci := range w.chunkInfos {
		if err := w.rw.WriteRecord(ci.Encode()); err != nil {
			return fmt.Errorf("rosbag: write chunk info: %w", err)
		}
	}
	// Patch the bag header in place.
	bh := &bagio.BagHeader{
		IndexPos:   indexPos,
		ConnCount:  uint32(len(w.conns)),
		ChunkCount: uint32(len(w.chunkInfos)),
	}
	enc, err := bh.Encode()
	if err != nil {
		return err
	}
	if _, err := w.ws.Seek(int64(len(bagio.Magic)), io.SeekStart); err != nil {
		return fmt.Errorf("rosbag: seek to bag header: %w", err)
	}
	if _, err := w.ws.Write(enc); err != nil {
		return fmt.Errorf("rosbag: patch bag header: %w", err)
	}
	if _, err := w.ws.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("rosbag: seek to end: %w", err)
	}
	return nil
}
