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
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bagio"
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

// Encoder assembles frames in a reusable buffer. AppendFrame and
// AppendMsg add whole frames to a pending batch without writing; Flush
// hands the batch to the writer as one Write of one contiguous buffer,
// so every Write begins and ends on a frame boundary and a peer never
// observes a header without its payload. WriteFrame, WriteMsg and
// WriteMsgOp are append + flush: one Write per frame when nothing else
// is pending. Where the write boundaries fall never changes the byte
// stream. One Encoder serves one connection's write side (serialize
// externally, as conn write locks already do); steady-state encoding
// performs zero allocations once the buffer has grown to the largest
// batch seen.
type Encoder struct{ buf []byte }

// AppendFrame adds one op+payload frame to the pending batch.
func (e *Encoder) AppendFrame(op byte, payload []byte) {
	e.buf = AppendFrame(e.buf, op, payload)
}

// AppendMsg adds one MSG frame to the pending batch, encoding the
// message fields directly into the batch buffer — no intermediate
// payload slice, zero steady-state allocations. m.Data is only read
// during the call, so borrowed buffers (core.MessageRef.Data) can be
// passed straight through.
func (e *Encoder) AppendMsg(m Msg) { e.appendMsg(OpMsg, m) }

func (e *Encoder) appendMsg(op byte, m Msg) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(2+8+4+len(m.Data)))
	e.buf = append(e.buf, op)
	enc := enc{b: e.buf}
	enc.u16(m.Conn)
	enc.time(m.Time)
	enc.bytes32(m.Data)
	e.buf = enc.b
}

// Buffered returns the size of the pending batch in bytes.
func (e *Encoder) Buffered() int { return len(e.buf) }

// Flush writes the pending batch to w with a single Write call and
// empties it — also on error: a failed Write leaves the stream torn,
// and the connection has to go, not the batch be retried. Flushing an
// empty batch writes nothing.
func (e *Encoder) Flush(w io.Writer) error {
	if len(e.buf) == 0 {
		return nil
	}
	_, err := w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// WriteFrame appends one op+payload frame and flushes: the frame, and
// anything pending before it, leaves in one Write.
func (e *Encoder) WriteFrame(w io.Writer, op byte, payload []byte) error {
	e.AppendFrame(op, payload)
	return e.Flush(w)
}

// WriteMsg is AppendMsg + Flush.
func (e *Encoder) WriteMsg(w io.Writer, m Msg) error {
	return e.WriteMsgOp(w, OpMsg, m)
}

// WriteMsgOp is WriteMsg under a caller-chosen opcode — the same
// payload encoding serves MSG (download) and RECMSG (upload) frames.
func (e *Encoder) WriteMsgOp(w io.Writer, op byte, m Msg) error {
	e.appendMsg(op, m)
	return e.Flush(w)
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
	n := binary.BigEndian.Uint32(hdr[:4])
	op := hdr[4]
	if max == 0 {
		max = DefaultMaxFrame
	}
	if n > max {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	if !KnownOp(op) {
		return Frame{}, fmt.Errorf("%w: 0x%02x", ErrUnknownOp, op)
	}
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
			return Frame{}, err
		}
		remaining -= chunk
	}
	*buf = b
	return Frame{Op: op, Payload: b}, nil
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

// Order selects a query's cross-topic delivery order on the wire.
const (
	OrderTopic uint8 = 0 // grouped by topic (core.OrderTopic)
	OrderTime  uint8 = 1 // global timestamp order (core.OrderTime)
)

// QueryReq is the QUERY request: a remote core.QuerySpec plus the
// client's initial flow-control window.
type QueryReq struct {
	Name   string
	Topics []string
	Start  bagio.Time
	End    bagio.Time
	Order  uint8
	// Window is the initial credit: the server sends at most this many
	// MSG frames beyond what the client has acknowledged with CREDIT
	// grants. Zero disables flow control (unbounded).
	Window uint32
	// TraceID and ParentSpan carry the client's query identity for
	// cross-process observability (obs.QueryID): the server tags its
	// spans and slow-query records with them so client and server traces
	// stitch into one timeline. They ride in an optional trailing block
	// of the frame — present only when TraceID != 0 — which is what
	// keeps the two directions of version skew working: an untraced
	// frame is byte-identical to the pre-TraceID format, an old server
	// ignores the trailing bytes of a traced frame (the decoder never
	// rejected oversize payloads), and an old client simply never sends
	// them.
	TraceID    uint64
	ParentSpan uint64
	// Follow streams the live tail after the sealed prefix: END arrives
	// only when the recording seals (or on CANCEL). It rides in an
	// optional trailing flags byte — after the trace block when one is
	// present — which old decoders ignore like the trace block itself.
	Follow bool
}

// Query flag bits (the optional trailing flags byte).
const flagFollow uint8 = 1 << 0

// EncodeQuery renders a QUERY payload.
func EncodeQuery(q QueryReq) []byte {
	var e enc
	e.str(q.Name)
	e.u16(uint16(len(q.Topics)))
	for _, t := range q.Topics {
		e.str(t)
	}
	e.time(q.Start)
	e.time(q.End)
	e.u8(q.Order)
	e.u32(q.Window)
	if q.TraceID != 0 {
		e.u64(q.TraceID)
		e.u64(q.ParentSpan)
	}
	if q.Follow {
		// The flags byte is only distinguishable from a trace block by
		// remaining length, so it must follow the trace block when both
		// are present (16+1 vs 16 vs 1 vs 0 trailing bytes).
		e.u8(flagFollow)
	}
	return e.b
}

// DecodeQuery parses a QUERY payload.
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
	q.Order = d.u8()
	q.Window = d.u32()
	if !d.fail {
		// Optional trailing blocks (newer clients only), dispatched by
		// exact remaining length: trace block (16), flags byte (1), both
		// (17). Any other trailing length is a malformed frame, not a
		// silent fallback.
		switch rem := len(d.b) - d.off; rem {
		case 0:
		case 16, 17:
			q.TraceID = d.u64()
			q.ParentSpan = d.u64()
			if rem == 17 {
				q.Follow = d.u8()&flagFollow != 0
			}
		case 1:
			q.Follow = d.u8()&flagFollow != 0
		default:
			d.fail = true
		}
	}
	if q.Order > OrderTime {
		return QueryReq{}, fmt.Errorf("wire: unknown order %d", q.Order)
	}
	return q, d.err()
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

// EncodeCredit renders a CREDIT payload granting n more MSG frames.
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
