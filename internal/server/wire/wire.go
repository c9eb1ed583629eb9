// Package wire defines borad's wire protocol: length-prefixed binary
// frames over a byte stream. Every frame is a 5-byte header — a
// big-endian uint32 payload length plus one opcode byte — followed by
// the payload. The protocol is strictly client-driven: the client sends
// one request frame and reads response frames until a terminal one
// (PONG, OK, BAGINFO, END, ERR, BUSY); only QUERY produces a stream
// (QUERYHDR, then MSG frames, then END), during which the client may
// send CREDIT (flow control) and CANCEL frames.
//
// All decoders treat their input as hostile: lengths are bounds-checked
// against the actual payload, element counts never pre-allocate more
// than a small constant, and ReadFrame grows its buffer only as bytes
// actually arrive, so a lying length prefix cannot force a large
// allocation.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/bagio"
	"repro/internal/spec"
)

// HeaderSize is the fixed frame header width: uint32 payload length +
// opcode byte.
const HeaderSize = 5

// DefaultMaxFrame bounds a frame's payload length unless the caller
// picks its own limit. Message payloads dominate frame sizes; 16 MiB
// clears any plausible robotic message (the paper's largest topic is
// ~1.5 MiB point clouds) with headroom.
const DefaultMaxFrame = 16 << 20

// Request opcodes (client → server).
const (
	OpPing    byte = 0x01 // payload echoed back in PONG
	OpOpen    byte = 0x02 // bag name; warms the serving pool → OK
	OpInfo    byte = 0x03 // bag name → BAGINFO
	OpQuery   byte = 0x04 // QueryReq → QUERYHDR, MSG..., END
	OpStats   byte = 0x05 // empty → OK with ServerStats JSON
	OpCredit  byte = 0x06 // uint32 grant (flow control during a stream)
	OpCancel  byte = 0x07 // empty; abort the in-flight query
	OpRecord  byte = 0x08 // RecordReq; open an upload → OK with initial credit
	OpRecConn byte = 0x09 // RecConn: declare one upload connection
	OpRecMsg  byte = 0x0a // Msg: one uploaded message (conn = RecConn ID)
	OpRecDone byte = 0x0b // empty; seal the recording → END summary
)

// Response opcodes (server → client).
const (
	OpPong     byte = 0x81 // PING echo
	OpOK       byte = 0x82 // success; payload depends on the request
	OpErr      byte = 0x83 // payload is a human-readable error string
	OpBusy     byte = 0x84 // typed admission reject; payload is the reason
	OpBagInfo  byte = 0x85 // BagInfo
	OpQueryHdr byte = 0x86 // []ConnMeta: the stream's connection table
	OpMsg      byte = 0x87 // Msg: one streamed message
	OpEnd      byte = 0x88 // End: stream summary
	OpGrant    byte = 0x89 // uint32: more RECMSG credit during an upload
)

// KnownOp reports whether op is a defined opcode.
func KnownOp(op byte) bool {
	switch op {
	case OpPing, OpOpen, OpInfo, OpQuery, OpStats, OpCredit, OpCancel,
		OpRecord, OpRecConn, OpRecMsg, OpRecDone,
		OpPong, OpOK, OpErr, OpBusy, OpBagInfo, OpQueryHdr, OpMsg, OpEnd,
		OpGrant:
		return true
	}
	return false
}

// Typed frame-level errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrUnknownOp     = errors.New("wire: unknown opcode")
	ErrTruncated     = errors.New("wire: truncated payload")
)

// Frame is one decoded frame.
type Frame struct {
	Op      byte
	Payload []byte
}

// AppendFrame appends one complete frame (header + payload) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, op byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, op)
	return append(dst, payload...)
}

// WriteFrame writes one frame to w as a single Write call, so an
// unbuffered writer pays one syscall per frame and a peer never
// observes a header without its payload (no torn-write window between
// header and body). Hot paths should prefer an Encoder, which reuses
// its assembly buffer across frames; WriteFrame allocates one per call
// for payloads that don't fit its stack buffer.
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	var stack [HeaderSize + 256]byte
	frame := AppendFrame(stack[:0], op, payload)
	_, err := w.Write(frame)
	return err
}

// MsgHeadSize is what a MSG frame carries before its payload: the frame
// header, connection index, time stamp and payload length.
const MsgHeadSize = HeaderSize + 2 + 8 + 4

// AppendMsgHead appends the first MsgHeadSize bytes of m's MSG frame to
// dst — everything but the payload — and returns the extended slice.
// Followed by exactly m.Data it is the frame; a writer that sends the
// payload from where it lies (borad's vectored flush) writes the two
// back to back.
func AppendMsgHead(dst []byte, m Msg) []byte { return appendMsgHead(dst, OpMsg, m) }

func appendMsgHead(dst []byte, op byte, m Msg) []byte {
	e := enc{b: append(binary.BigEndian.AppendUint32(dst, uint32(MsgHeadSize-HeaderSize+len(m.Data))), op)}
	e.u16(m.Conn)
	e.time(m.Time)
	e.u32(uint32(len(m.Data)))
	return e.b
}

// AppendMsg appends m's whole MSG frame to dst, encoding the fields
// directly — no intermediate payload slice. m.Data is only read during
// the call, so borrowed buffers (core.MessageRef.Data) pass straight
// through; assigned back to dst, a payload that faults mid-copy (a
// mapped part cut under the query) leaves dst's whole frames as they
// were.
func AppendMsg(dst []byte, m Msg) []byte { return append(AppendMsgHead(dst, m), m.Data...) }

// Encoder writes frames one at a time through a reusable assembly
// buffer: each Write carries one whole frame, so a peer never observes
// a header without its payload, and steady-state encoding performs zero
// allocations once the buffer has grown to the largest frame seen. One
// Encoder serves one connection's write side (serialize externally, as
// conn write locks already do).
type Encoder struct{ buf []byte }

// flush writes the pending frame to w with a single Write call and
// empties the buffer — also on error: a failed Write leaves the stream
// torn, and the connection has to go, not the frame be retried.
func (e *Encoder) flush(w io.Writer) error {
	_, err := w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// WriteFrame writes one op+payload frame in one Write.
func (e *Encoder) WriteFrame(w io.Writer, op byte, payload []byte) error {
	e.buf = AppendFrame(e.buf, op, payload)
	return e.flush(w)
}

// WriteMsg writes m's MSG frame in one Write.
func (e *Encoder) WriteMsg(w io.Writer, m Msg) error {
	return e.WriteMsgOp(w, OpMsg, m)
}

// WriteMsgOp is WriteMsg under a caller-chosen opcode — the same
// payload encoding serves MSG (download) and RECMSG (upload) frames.
func (e *Encoder) WriteMsgOp(w io.Writer, op byte, m Msg) error {
	e.buf = append(appendMsgHead(e.buf, op, m), m.Data...)
	return e.flush(w)
}

// ReadFrame reads one frame from r, rejecting payloads longer than max
// (0 selects DefaultMaxFrame) and unknown opcodes. The returned payload
// is freshly allocated and owned by the caller; streaming consumers
// should prefer ReadFrameInto, which reuses a buffer across frames.
func ReadFrame(r io.Reader, max uint32) (Frame, error) {
	var buf []byte
	return ReadFrameInto(r, max, &buf)
}

// readChunk bounds how far ahead of the bytes actually received
// ReadFrameInto grows its buffer, so an adversarial length prefix costs
// the sender the bytes, not the receiver the memory.
const readChunk = 64 << 10

// ReadFrameInto is ReadFrame with the payload read into *buf, which is
// grown only as bytes arrive and reused across calls — once it covers
// the largest frame seen, the steady-state read path performs zero
// allocations. The returned Frame.Payload aliases *buf: it is valid
// only until the next ReadFrameInto with the same buffer, and callers
// that keep it must copy.
func ReadFrameInto(r io.Reader, max uint32, buf *[]byte) (Frame, error) {
	// The header is read through the reusable buffer too: a local array
	// would escape through the io.Reader interface and cost one heap
	// allocation per frame.
	if cap(*buf) < HeaderSize {
		*buf = make([]byte, HeaderSize)
	}
	hdr := (*buf)[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	n, op, err := header(hdr, max)
	if err != nil {
		return Frame{}, err
	}
	if err := readPayload(r, n, buf); err != nil {
		return Frame{}, err
	}
	return Frame{Op: op, Payload: *buf}, nil
}

// header checks a frame header: its payload length against max (0
// selects DefaultMaxFrame) and its opcode.
func header(hdr []byte, max uint32) (uint32, byte, error) {
	n, op := binary.BigEndian.Uint32(hdr[:4]), hdr[4]
	if max == 0 {
		max = DefaultMaxFrame
	}
	if n > max {
		return 0, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	if !KnownOp(op) {
		return 0, 0, fmt.Errorf("%w: 0x%02x", ErrUnknownOp, op)
	}
	return n, op, nil
}

// readPayload reads an n-byte payload from r into *buf, growing it by
// at most readChunk ahead of the bytes that have arrived.
func readPayload(r io.Reader, n uint32, buf *[]byte) error {
	b := (*buf)[:0]
	for remaining := int(n); remaining > 0; {
		chunk := remaining
		if chunk > readChunk {
			chunk = readChunk
		}
		off := len(b)
		if cap(b) < off+chunk {
			nb := make([]byte, off, off+chunk)
			copy(nb, b)
			b = nb
		}
		m, err := io.ReadFull(r, b[off:off+chunk])
		b = b[:off+m]
		*buf = b
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		remaining -= chunk
	}
	*buf = b
	return nil
}

// Reader reads frames from a buffered stream without copying them. A
// frame that fits the stream's buffer is decoded where it lies
// (bufio.Reader.Peek), and stays there until the next Next discards it;
// a larger one is read as ReadFrameInto reads it, into a buffer of the
// Reader's own grown only as bytes arrive, so a lying length prefix
// still costs the sender the bytes. Either way a Frame's Payload is
// valid only until the next Next. Frames are limited to
// DefaultMaxFrame; the zero Reader is not usable — see NewReader.
type Reader struct {
	br   *bufio.Reader
	held int    // bytes of the last frame still in br, discarded by the next Next
	buf  []byte // a payload larger than br's buffer
}

// NewReader returns a Reader of frames from br.
func NewReader(br *bufio.Reader) Reader { return Reader{br: br} }

// Next reads the next frame. Once br's buffer covers the frames of a
// stream, it performs no allocation and no copy beyond what bufio's
// refills do.
func (r *Reader) Next() (Frame, error) {
	if r.held > 0 {
		r.br.Discard(r.held) // the bytes Peek returned: it cannot fail
		r.held = 0
	}
	hdr, err := r.br.Peek(HeaderSize)
	if err != nil {
		return Frame{}, short(err, len(hdr))
	}
	n, op, err := header(hdr, DefaultMaxFrame)
	if err != nil {
		return Frame{}, err
	}
	size := HeaderSize + int(n)
	if size > r.br.Size() {
		r.br.Discard(HeaderSize)
		if err := readPayload(r.br, n, &r.buf); err != nil {
			return Frame{}, err
		}
		return Frame{Op: op, Payload: r.buf}, nil
	}
	p, err := r.br.Peek(size)
	if err != nil {
		return Frame{}, short(err, len(p))
	}
	r.held = size
	return Frame{Op: op, Payload: p[HeaderSize:size:size]}, nil
}

// short is the error of a read that ended after got bytes of a frame:
// a stream that ends mid-frame is io.ErrUnexpectedEOF, as io.ReadFull
// reports it.
func short(err error, got int) error {
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// enc builds a payload. The zero value is ready to use.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }

// str appends a uint16-length-prefixed string, truncating at 64 KiB-1
// (no protocol string — topic names, bag names, reasons — approaches
// the limit; truncation beats an error path nothing can hit).
func (e *enc) str(s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

// bytes32 appends a uint32-length-prefixed byte string.
func (e *enc) bytes32(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}

func (e *enc) time(t bagio.Time) {
	e.u32(t.Sec)
	e.u32(t.NSec)
}

// dec consumes a payload with sticky bounds-check failure.
type dec struct {
	b    []byte
	off  int
	fail bool
}

func (d *dec) take(n int) []byte {
	if d.fail || n < 0 || len(d.b)-d.off < n {
		d.fail = true
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (d *dec) str() string   { return string(d.take(int(d.u16()))) }
func (d *dec) bytes() []byte { return d.take(int(d.u32())) }

func (d *dec) time() bagio.Time {
	sec := d.u32()
	nsec := d.u32()
	return bagio.Time{Sec: sec, NSec: nsec}
}

func (d *dec) err() error {
	if d.fail {
		return ErrTruncated
	}
	return nil
}

// preallocCap caps count-driven slice pre-allocation: a lying element
// count can claim 65535 entries in a 10-byte payload, so decoders
// reserve at most this many up front and append beyond it.
const preallocCap = 256

func capCount(n int) int {
	if n > preallocCap {
		return preallocCap
	}
	return n
}

// QueryReq is the QUERY request: a query selection plus how the client
// wants it streamed.
type QueryReq struct {
	Name string
	// Query is the selection, one spec.Query: the topic list, the
	// [Start, End] window, a one-byte order and, in the trailing blocks
	// below, Follow and Stride.
	spec.Query
	// Window is the initial credit: the server sends MSG frames while
	// what it has sent beyond what the client has acknowledged with
	// CREDIT grants is less than this. It counts frames, or with
	// ByteCredit their encoded bytes (HeaderSize + payload). Zero
	// disables flow control (unbounded).
	Window uint32
	// TraceID and ParentSpan carry the client's query identity for
	// cross-process observability (obs.QueryID): the server tags its
	// spans and slow-query records with them so client and server traces
	// stitch into one timeline. They ride in an optional trailing block
	// of the frame, present only when TraceID != 0, so an untraced frame
	// is byte-identical to the pre-TraceID format.
	TraceID    uint64
	ParentSpan uint64
	// ByteCredit counts Window and every CREDIT grant of the stream in
	// encoded MSG frame bytes instead of frames. It rides in the
	// optional trailing flags byte, after the trace block when one is
	// present, beside Follow (the live tail after the sealed prefix).
	ByteCredit bool
}

// Query flag bits (the optional trailing flags byte).
const (
	flagFollow     uint8 = 1 << 0
	flagByteCredit uint8 = 1 << 1
	flagStride     uint8 = 1 << 2 // a u32 stride follows the flags byte
)

// EncodeQuery renders a QUERY payload. The optional trailing blocks go
// in a fixed order — trace block (16 bytes), flags byte, stride (4) —
// and each is present only when it carries something, so a request
// that needs none of them is the original fixed layout.
func EncodeQuery(q QueryReq) []byte {
	var e enc
	e.str(q.Name)
	e.u16(uint16(len(q.Topics)))
	for _, t := range q.Topics {
		e.str(t)
	}
	e.time(q.Start)
	e.time(q.End)
	e.u8(uint8(q.Order))
	e.u32(q.Window)
	if q.TraceID != 0 {
		e.u64(q.TraceID)
		e.u64(q.ParentSpan)
	}
	var flags uint8
	if q.Follow {
		flags |= flagFollow
	}
	if q.ByteCredit {
		flags |= flagByteCredit
	}
	if q.Stride > 1 {
		flags |= flagStride
	}
	if flags != 0 {
		e.u8(flags)
	}
	if q.Stride > 1 {
		// A stride past u32 keeps only the first message of each topic,
		// as the largest u32 does of any topic shorter than 4 G messages.
		e.u32(uint32(min(uint64(q.Stride), math.MaxUint32)))
	}
	return e.b
}

// DecodeQuery parses a QUERY payload and validates its selection.
func DecodeQuery(p []byte) (QueryReq, error) {
	d := dec{b: p}
	q := QueryReq{Name: d.str()}
	n := int(d.u16())
	q.Topics = make([]string, 0, capCount(n))
	for i := 0; i < n && !d.fail; i++ {
		q.Topics = append(q.Topics, d.str())
	}
	if len(q.Topics) == 0 {
		q.Topics = nil
	}
	q.Start = d.time()
	q.End = d.time()
	q.Order = spec.Order(d.u8())
	q.Window = d.u32()
	if !d.fail {
		// Optional trailing blocks, dispatched by exact remaining length:
		// trace block (16), flags byte (1), flags byte and stride (5), or
		// a trace block before either (17, 21). Any other trailing length
		// is a malformed frame, not a silent fallback — which is also how
		// a decoder that predates a block answers a frame that carries it.
		rem := len(d.b) - d.off
		tail := rem % 16
		if rem > 21 || tail != 0 && tail != 1 && tail != 5 {
			d.fail = true
		}
		if rem >= 16 && !d.fail {
			q.TraceID = d.u64()
			q.ParentSpan = d.u64()
		}
		if tail > 0 && !d.fail {
			flags := d.u8()
			q.Follow, q.ByteCredit = flags&flagFollow != 0, flags&flagByteCredit != 0
			switch {
			case (flags&flagStride != 0) != (tail == 5):
				d.fail = true
			case tail == 5:
				q.Stride = int(d.u32())
			}
		}
	}
	if err := d.err(); err != nil {
		return QueryReq{}, err
	}
	if err := q.Validate(); err != nil {
		return QueryReq{}, fmt.Errorf("wire: %w", err)
	}
	return q, nil
}

// ConnMeta is one entry of a stream's connection table: MSG frames
// refer to topics by index into the QUERYHDR's []ConnMeta.
type ConnMeta struct {
	Topic string
	Type  string
}

// EncodeQueryHdr renders a QUERYHDR payload.
func EncodeQueryHdr(conns []ConnMeta) []byte {
	var e enc
	e.u16(uint16(len(conns)))
	for _, c := range conns {
		e.str(c.Topic)
		e.str(c.Type)
	}
	return e.b
}

// DecodeQueryHdr parses a QUERYHDR payload.
func DecodeQueryHdr(p []byte) ([]ConnMeta, error) {
	d := dec{b: p}
	n := int(d.u16())
	conns := make([]ConnMeta, 0, capCount(n))
	for i := 0; i < n && !d.fail; i++ {
		conns = append(conns, ConnMeta{Topic: d.str(), Type: d.str()})
	}
	return conns, d.err()
}

// Msg is one streamed message: a connection-table index, the timestamp,
// and the raw serialized message bytes.
type Msg struct {
	Conn uint16
	Time bagio.Time
	Data []byte
}

// EncodeMsg renders a MSG payload.
func EncodeMsg(m Msg) []byte {
	e := enc{b: make([]byte, 0, 2+8+4+len(m.Data))}
	e.u16(m.Conn)
	e.time(m.Time)
	e.bytes32(m.Data)
	return e.b
}

// DecodeMsg parses a MSG payload. Data aliases p.
func DecodeMsg(p []byte) (Msg, error) {
	d := dec{b: p}
	m := Msg{Conn: d.u16()}
	m.Time = d.time()
	m.Data = d.bytes()
	return m, d.err()
}

// End is the stream summary terminating a successful QUERY.
type End struct {
	Count uint64 // messages streamed
	Bytes uint64 // payload bytes streamed
}

// EncodeEnd renders an END payload.
func EncodeEnd(eo End) []byte {
	var e enc
	e.u64(eo.Count)
	e.u64(eo.Bytes)
	return e.b
}

// DecodeEnd parses an END payload.
func DecodeEnd(p []byte) (End, error) {
	d := dec{b: p}
	eo := End{Count: d.u64(), Bytes: d.u64()}
	return eo, d.err()
}

// TopicInfo is one topic's metadata in a BAGINFO reply.
type TopicInfo struct {
	Topic string
	Type  string
	Count uint64
}

// BagInfo is the INFO reply: the bag's topics with message counts.
type BagInfo struct {
	Name   string
	Topics []TopicInfo
}

// EncodeBagInfo renders a BAGINFO payload.
func EncodeBagInfo(bi BagInfo) []byte {
	var e enc
	e.str(bi.Name)
	e.u32(uint32(len(bi.Topics)))
	for _, t := range bi.Topics {
		e.str(t.Topic)
		e.str(t.Type)
		e.u64(t.Count)
	}
	return e.b
}

// DecodeBagInfo parses a BAGINFO payload.
func DecodeBagInfo(p []byte) (BagInfo, error) {
	d := dec{b: p}
	bi := BagInfo{Name: d.str()}
	n := int(d.u32())
	bi.Topics = make([]TopicInfo, 0, capCount(n))
	for i := 0; i < n && !d.fail; i++ {
		bi.Topics = append(bi.Topics, TopicInfo{Topic: d.str(), Type: d.str(), Count: d.u64()})
	}
	return bi, d.err()
}

// EncodeCredit renders a CREDIT payload granting n more MSG frames, or
// n more bytes of them on a ByteCredit stream.
func EncodeCredit(n uint32) []byte {
	var e enc
	e.u32(n)
	return e.b
}

// DecodeCredit parses a CREDIT payload.
func DecodeCredit(p []byte) (uint32, error) {
	d := dec{b: p}
	n := d.u32()
	return n, d.err()
}

// ServerStats is the STATS reply, carried as JSON in an OK frame (the
// same shape borad's /metrics sidecar embeds) so it can grow fields
// without a wire-format revision.
type ServerStats struct {
	ConnsAccepted   int64 `json:"conns_accepted"`
	ConnsActive     int64 `json:"conns_active"`
	QueriesActive   int64 `json:"queries_active"`
	QueriesServed   int64 `json:"queries_served"`
	QueriesBusy     int64 `json:"queries_busy"`
	QueriesCanceled int64 `json:"queries_canceled"`
	Draining        bool  `json:"draining"`
	PoolHits        int64 `json:"pool_hits,omitempty"`
	PoolMisses      int64 `json:"pool_misses,omitempty"`
	PoolResident    int64 `json:"pool_resident,omitempty"`
}

// RecordReq is the RECORD request: open an upload stream creating the
// named bag.
type RecordReq struct {
	Name string
	// Live selects the segmented live layout (readable mid-recording
	// with follow queries); a classic single-container bag otherwise.
	Live bool
	// WindowNanos is the live segment rotation window in nanoseconds;
	// zero selects the server default. Ignored unless Live.
	WindowNanos uint64
}

// EncodeRecord renders a RECORD payload.
func EncodeRecord(r RecordReq) []byte {
	var e enc
	e.str(r.Name)
	var live byte
	if r.Live {
		live = 1
	}
	e.u8(live)
	e.u64(r.WindowNanos)
	return e.b
}

// DecodeRecord parses a RECORD payload.
func DecodeRecord(p []byte) (RecordReq, error) {
	d := dec{b: p}
	r := RecordReq{Name: d.str()}
	r.Live = d.u8() != 0
	r.WindowNanos = d.u64()
	return r, d.err()
}

// RecConn declares one upload connection: the client picks the ID its
// subsequent RECMSG frames carry. Redeclaring an ID is an error;
// redeclaring a topic under a new ID aliases the same topic.
type RecConn struct {
	Conn  uint16
	Topic string
	Type  string
}

// EncodeRecConn renders a RECCONN payload.
func EncodeRecConn(c RecConn) []byte {
	var e enc
	e.u16(c.Conn)
	e.str(c.Topic)
	e.str(c.Type)
	return e.b
}

// DecodeRecConn parses a RECCONN payload.
func DecodeRecConn(p []byte) (RecConn, error) {
	d := dec{b: p}
	c := RecConn{Conn: d.u16(), Topic: d.str(), Type: d.str()}
	return c, d.err()
}

// EncodeGrant renders a GRANT payload adding n RECMSG credits.
func EncodeGrant(n uint32) []byte { return EncodeCredit(n) }

// DecodeGrant parses a GRANT payload.
func DecodeGrant(p []byte) (uint32, error) { return DecodeCredit(p) }
