package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/bagio"
	"repro/internal/spec"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := []struct {
		op byte
		p  []byte
	}{
		{OpPing, []byte("nonce")},
		{OpCancel, nil},
		{OpMsg, bytes.Repeat([]byte{0xab}, 100_000)},
	}
	for _, f := range payloads {
		if err := WriteFrame(&buf, f.op, f.p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		f, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Op != want.op || !bytes.Equal(f.Payload, want.p) {
			t.Errorf("frame 0x%02x: payload mismatch (%d bytes vs %d)", f.Op, len(f.Payload), len(want.p))
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Errorf("read past end: err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejects(t *testing.T) {
	frame := func(n uint32, op byte, body []byte) []byte {
		var hdr [HeaderSize]byte
		binary.BigEndian.PutUint32(hdr[:4], n)
		hdr[4] = op
		return append(hdr[:], body...)
	}
	t.Run("oversized", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(frame(1<<30, OpMsg, nil)), 1<<20)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("unknown opcode", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(frame(0, 0x7f, nil)), 0)
		if !errors.Is(err, ErrUnknownOp) {
			t.Errorf("err = %v, want ErrUnknownOp", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(frame(100, OpPing, []byte("short"))), 0)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader([]byte{0, 0}), 0)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
}

func TestQueryRoundTrip(t *testing.T) {
	want := QueryReq{
		Name: "robot1",
		Query: spec.Query{
			Topics: []string{"/imu", "/camera/rgb/image_color"},
			Start:  bagio.Time{Sec: 100, NSec: 5},
			End:    bagio.Time{Sec: 200, NSec: 999999999},
			Order:  spec.OrderTime,
		},
		Window: 64,
	}
	got, err := DecodeQuery(EncodeQuery(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
	// Empty topic list decodes to nil (= all topics).
	got, err = DecodeQuery(EncodeQuery(QueryReq{Name: "b"}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Topics != nil {
		t.Errorf("empty topics decoded to %v, want nil", got.Topics)
	}
	if _, err := DecodeQuery([]byte{0, 1}); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated query: err = %v, want ErrTruncated", err)
	}
	bad := EncodeQuery(QueryReq{Name: "b", Query: spec.Query{Order: 9}})
	if _, err := DecodeQuery(bad); err == nil {
		t.Error("unknown order accepted")
	}
	// The decoder validates the selection it hands the server.
	inverted := EncodeQuery(QueryReq{Name: "b", Query: spec.Query{Start: bagio.Time{Sec: 9}, End: bagio.Time{Sec: 1}}})
	if _, err := DecodeQuery(inverted); err == nil {
		t.Error("inverted window accepted")
	}
}

// TestQueryTraceVersioning pins the trailing-optional-field versioning
// of the QUERY payload: an untraced request encodes byte-identically to
// the pre-TraceID format, a traced one round-trips its identity, and a
// decoder handed an old-format frame leaves the trace fields zero.
func TestQueryTraceVersioning(t *testing.T) {
	base := QueryReq{
		Name:   "robot1",
		Query:  spec.Query{Topics: []string{"/imu"}, Start: bagio.Time{Sec: 100}, End: bagio.Time{Sec: 200}},
		Window: 64,
	}

	// Old-format rendering, assembled by hand: the frame a pre-TraceID
	// client would send. The untraced encoder must match it byte for
	// byte.
	var e enc
	e.str(base.Name)
	e.u16(1)
	e.str("/imu")
	e.time(base.Start)
	e.time(base.End)
	e.u8(uint8(base.Order))
	e.u32(base.Window)
	old := e.b
	if got := EncodeQuery(base); !bytes.Equal(got, old) {
		t.Errorf("untraced encoding differs from the old format:\n got %x\nwant %x", got, old)
	}

	// An old-format frame decodes with zero trace identity.
	got, err := DecodeQuery(old)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.ParentSpan != 0 {
		t.Errorf("old frame decoded trace %d/%d, want 0/0", got.TraceID, got.ParentSpan)
	}

	// A traced frame is strictly longer and round-trips the identity.
	traced := base
	traced.TraceID = 0xdeadbeefcafe
	traced.ParentSpan = 42
	payload := EncodeQuery(traced)
	if len(payload) != len(old)+16 {
		t.Errorf("traced payload %d bytes, want old %d + 16", len(payload), len(old))
	}
	got, err = DecodeQuery(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, traced) {
		t.Errorf("traced round-trip: got %+v, want %+v", got, traced)
	}

	// A truncated trace block (half a u64) is a malformed frame, not a
	// silent fallback.
	if _, err := DecodeQuery(payload[:len(old)+4]); !errors.Is(err, ErrTruncated) {
		t.Errorf("half trace block: err = %v, want ErrTruncated", err)
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	conns := []ConnMeta{{Topic: "/imu", Type: "sensor_msgs/Imu"}, {Topic: "/tf", Type: "tf/tfMessage"}}
	gotConns, err := DecodeQueryHdr(EncodeQueryHdr(conns))
	if err != nil || !reflect.DeepEqual(gotConns, conns) {
		t.Errorf("queryhdr: got %+v err %v", gotConns, err)
	}

	msg := Msg{Conn: 1, Time: bagio.Time{Sec: 7, NSec: 8}, Data: []byte("payload bytes")}
	gotMsg, err := DecodeMsg(EncodeMsg(msg))
	if err != nil || !reflect.DeepEqual(gotMsg, msg) {
		t.Errorf("msg: got %+v err %v", gotMsg, err)
	}

	end := End{Count: 12345, Bytes: 1 << 40}
	gotEnd, err := DecodeEnd(EncodeEnd(end))
	if err != nil || gotEnd != end {
		t.Errorf("end: got %+v err %v", gotEnd, err)
	}

	bi := BagInfo{Name: "robot1", Topics: []TopicInfo{{Topic: "/imu", Type: "sensor_msgs/Imu", Count: 99}}}
	gotBi, err := DecodeBagInfo(EncodeBagInfo(bi))
	if err != nil || !reflect.DeepEqual(gotBi, bi) {
		t.Errorf("baginfo: got %+v err %v", gotBi, err)
	}

	n, err := DecodeCredit(EncodeCredit(42))
	if err != nil || n != 42 {
		t.Errorf("credit: got %d err %v", n, err)
	}
}

// TestLyingCountsStayBounded: element counts larger than the payload
// can possibly hold must fail with ErrTruncated, never allocate
// count-sized slices.
func TestLyingCountsStayBounded(t *testing.T) {
	var e enc
	e.str("bag")
	e.u16(0xffff) // claims 65535 topics in an empty payload
	if _, err := DecodeQuery(e.b); !errors.Is(err, ErrTruncated) {
		t.Errorf("query: err = %v, want ErrTruncated", err)
	}
	var e2 enc
	e2.u16(0xffff)
	if _, err := DecodeQueryHdr(e2.b); !errors.Is(err, ErrTruncated) {
		t.Errorf("queryhdr: err = %v, want ErrTruncated", err)
	}
	var e3 enc
	e3.str("bag")
	e3.u32(1 << 31)
	if _, err := DecodeBagInfo(e3.b); !errors.Is(err, ErrTruncated) {
		t.Errorf("baginfo: err = %v, want ErrTruncated", err)
	}
}

func TestRecordRoundTrips(t *testing.T) {
	for _, req := range []RecordReq{
		{Name: "bag1"},
		{Name: "live1", Live: true},
		{Name: "live2", Live: true, WindowNanos: 60_000_000_000},
	} {
		got, err := DecodeRecord(EncodeRecord(req))
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Errorf("record %+v: got %+v err %v", req, got, err)
		}
	}
	if _, err := DecodeRecord([]byte{0, 3, 'a'}); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated record: err = %v, want ErrTruncated", err)
	}

	rc := RecConn{Conn: 7, Topic: "/imu", Type: "sensor_msgs/Imu"}
	gotC, err := DecodeRecConn(EncodeRecConn(rc))
	if err != nil || !reflect.DeepEqual(gotC, rc) {
		t.Errorf("recconn: got %+v err %v", gotC, err)
	}

	n, err := DecodeGrant(EncodeGrant(128))
	if err != nil || n != 128 {
		t.Errorf("grant: got %d err %v", n, err)
	}

	// RECMSG reuses the Msg encoding through WriteMsgOp.
	var buf bytes.Buffer
	var e Encoder
	msg := Msg{Conn: 3, Time: bagio.Time{Sec: 9, NSec: 10}, Data: []byte("up")}
	if err := e.WriteMsgOp(&buf, OpRecMsg, msg); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf, 0)
	if err != nil || f.Op != OpRecMsg {
		t.Fatalf("recmsg frame: op 0x%02x err %v", f.Op, err)
	}
	gotM, err := DecodeMsg(f.Payload)
	if err != nil || !reflect.DeepEqual(gotM, msg) {
		t.Errorf("recmsg: got %+v err %v", gotM, err)
	}
}

func TestQueryFollowFlag(t *testing.T) {
	base := QueryReq{Name: "bag1", Query: spec.Query{Topics: []string{"/imu"}}, Window: 64}

	// Follow alone rides in a single trailing byte.
	fq := base
	fq.Follow = true
	plain := EncodeQuery(base)
	followed := EncodeQuery(fq)
	if len(followed) != len(plain)+1 {
		t.Errorf("follow payload %d bytes, want plain %d + 1", len(followed), len(plain))
	}
	got, err := DecodeQuery(followed)
	if err != nil || !got.Follow {
		t.Errorf("follow round-trip: got %+v err %v", got, err)
	}

	// Follow composes with the trace block (16+1 trailing bytes).
	tq := fq
	tq.TraceID = 99
	tq.ParentSpan = 7
	got, err = DecodeQuery(EncodeQuery(tq))
	if err != nil || !reflect.DeepEqual(got, tq) {
		t.Errorf("traced follow round-trip: got %+v err %v", got, err)
	}

	// Unrecognized trailing lengths are malformed, not silently skipped.
	if _, err := DecodeQuery(append(plain, 1, 2, 3)); !errors.Is(err, ErrTruncated) {
		t.Errorf("3 trailing bytes: err = %v, want ErrTruncated", err)
	}
}

// TestQueryByteCreditFlag: byte-counted credit rides in the trailing
// flags byte beside Follow, with and without the trace block, and a
// request without it — an old client's — decodes as frame-counted.
func TestQueryByteCreditFlag(t *testing.T) {
	base := QueryReq{Name: "bag1", Query: spec.Query{Topics: []string{"/imu"}}, Window: 1 << 20}
	plain := EncodeQuery(base)
	if got, err := DecodeQuery(plain); err != nil || got.ByteCredit {
		t.Errorf("old-form request: got %+v err %v; want frame-counted credit", got, err)
	}
	for _, follow := range []bool{false, true} {
		for _, trace := range []uint64{0, 99} {
			q := base
			q.ByteCredit, q.Follow, q.TraceID, q.ParentSpan = true, follow, trace, trace/3
			p := EncodeQuery(q)
			want := len(plain) + 1 // one flags byte carries both bits
			if trace != 0 {
				want += 16
			}
			if len(p) != want {
				t.Errorf("follow %v, trace %d: payload %d bytes, want %d", follow, trace, len(p), want)
			}
			got, err := DecodeQuery(p)
			if err != nil || !reflect.DeepEqual(got, q) {
				t.Errorf("follow %v, trace %d: round-trip got %+v err %v", follow, trace, got, err)
			}
			// Without the bit the same request is frame-counted again.
			q.ByteCredit = false
			if got, err := DecodeQuery(EncodeQuery(q)); err != nil || got.ByteCredit || got.Follow != follow {
				t.Errorf("follow %v, trace %d, no bit: got %+v err %v", follow, trace, got, err)
			}
		}
	}
}

// TestQueryGolden pins the QUERY payloads of an unstrided request in
// each of its four trailing forms — none, trace block, flags byte, both
// — to the bytes the encoder produced before the stride block existed,
// so a request that does not stride reaches a server of either age
// unchanged.
func TestQueryGolden(t *testing.T) {
	base := QueryReq{
		Name: "robot1",
		Query: spec.Query{
			Topics: []string{"/imu", "/tf"},
			Start:  bagio.Time{Sec: 1500000000, NSec: 5},
			End:    bagio.Time{Sec: 1500000010, NSec: 7},
			Order:  spec.OrderTime,
		},
		Window: 1 << 20,
	}
	traced := base
	traced.TraceID, traced.ParentSpan = 0x0102030405060708, 0x1112131415161718
	flagged := base
	flagged.ByteCredit = true
	both := traced
	both.Follow, both.ByteCredit = true, true
	const fixed = "0006726f626f7431000200042f696d7500032f746659682f000000000559682f0a000000070100100000"
	for _, tc := range []struct {
		name string
		q    QueryReq
		want string
	}{
		{"none", base, fixed},
		{"trace", traced, fixed + "01020304050607081112131415161718"},
		{"flags", flagged, fixed + "02"},
		{"trace and flags", both, fixed + "0102030405060708111213141516171803"},
	} {
		for _, stride := range []int{0, 1} { // both mean "every message"
			q := tc.q
			q.Stride = stride
			if got := hex.EncodeToString(EncodeQuery(q)); got != tc.want {
				t.Errorf("%s, stride %d:\n got %s\nwant %s", tc.name, stride, got, tc.want)
			}
		}
	}
}

// TestQueryStrideBlock: a stride above 1 rides in a u32 after the
// flags byte, with or without the trace block and the other flags, and
// round-trips. Its trailing lengths (5, 21) are ones a decoder that
// predates it (0, 1, 16, 17) refuses as malformed, so an old server
// answers a strided query with an error instead of streaming every
// message.
func TestQueryStrideBlock(t *testing.T) {
	base := QueryReq{Name: "bag1", Query: spec.Query{Topics: []string{"/imu"}}, Window: 64}
	plain := EncodeQuery(base)
	for _, trace := range []uint64{0, 99} {
		for _, follow := range []bool{false, true} {
			q := base
			q.Stride, q.Follow, q.ByteCredit, q.TraceID, q.ParentSpan = 10, follow, follow, trace, trace/3
			p := EncodeQuery(q)
			tail := len(p) - len(plain)
			if want := map[bool]int{false: 5, true: 21}[trace != 0]; tail != want {
				t.Errorf("trace %d, follow %v: %d trailing bytes, want %d", trace, follow, tail, want)
			}
			if tail == 0 || tail == 1 || tail == 16 || tail == 17 {
				t.Errorf("trace %d, follow %v: trailing length %d is one an old decoder accepts", trace, follow, tail)
			}
			got, err := DecodeQuery(p)
			if err != nil || !reflect.DeepEqual(got, q) {
				t.Errorf("trace %d, follow %v: round-trip got %+v err %v", trace, follow, got, err)
			}
			// The stride bit without its u32, or the u32 without its bit,
			// is malformed.
			if _, err := DecodeQuery(p[:len(p)-4]); !errors.Is(err, ErrTruncated) {
				t.Errorf("trace %d, follow %v: stride bit without stride: err = %v, want ErrTruncated", trace, follow, err)
			}
			p[len(p)-5] &^= flagStride
			if _, err := DecodeQuery(p); !errors.Is(err, ErrTruncated) {
				t.Errorf("trace %d, follow %v: stride without its bit: err = %v, want ErrTruncated", trace, follow, err)
			}
		}
	}
}

// TestReaderDecodesInPlace: a frame that fits the read buffer is
// handed out where it lies in it, one larger is read whole into the
// Reader's own buffer, and a stream cut mid-frame is ErrUnexpectedEOF.
func TestReaderDecodesInPlace(t *testing.T) {
	small := AppendMsg(nil, Msg{Conn: 1, Data: bytes.Repeat([]byte{1}, 100)})
	large := AppendMsg(nil, Msg{Conn: 2, Data: bytes.Repeat([]byte{2}, 3000)})
	stream := append(append(append([]byte(nil), small...), large...), small...)
	br := bufio.NewReaderSize(bytes.NewReader(stream), 1024) // the large frame does not fit
	r := NewReader(br)
	for i, want := range [][]byte{small, large, small} {
		f, err := r.Next()
		if err != nil || f.Op != OpMsg || !bytes.Equal(f.Payload, want[HeaderSize:]) {
			t.Fatalf("frame %d: op 0x%02x, %d bytes, %v", i, f.Op, len(f.Payload), err)
		}
		if len(want) <= br.Size() {
			if r.held != len(want) {
				t.Errorf("frame %d (%d bytes) fits the buffer but is not held there (held %d)", i, len(want), r.held)
			}
		} else if r.held != 0 || &f.Payload[0] != &r.buf[0] {
			t.Errorf("frame %d (%d bytes) is larger than the buffer but not read into the Reader's own", i, len(want))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
	r = NewReader(bufio.NewReader(bytes.NewReader(small[:50])))
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("cut frame: %v, want io.ErrUnexpectedEOF", err)
	}
}
