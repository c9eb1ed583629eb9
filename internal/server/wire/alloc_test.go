package wire

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/bagio"
	"repro/internal/raceenabled"
)

// TestAllocBudgetEncoder pins the streaming frame encode path at zero
// steady-state allocations: once the Encoder's buffer covers the
// largest frame, WriteMsg and WriteFrame allocate nothing per frame.
// (A query stream's batch of appended frames is the server's, and so is
// its budget: server.TestAllocBudgetBatch.)
func TestAllocBudgetEncoder(t *testing.T) {
	var e Encoder
	msg := Msg{Conn: 3, Time: bagio.Time{Sec: 100, NSec: 5}, Data: bytes.Repeat([]byte{0xAB}, 4096)}
	if err := e.WriteMsg(io.Discard, msg); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.WriteMsg(io.Discard, msg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Encoder.WriteMsg: %.1f allocs/frame", allocs)
	if !raceenabled.Enabled && allocs != 0 {
		t.Errorf("Encoder.WriteMsg allocates %.1f per frame, want 0", allocs)
	}

	payload := bytes.Repeat([]byte{0xCD}, 1024)
	if err := e.WriteFrame(io.Discard, OpErr, payload); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := e.WriteFrame(io.Discard, OpErr, payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Encoder.WriteFrame: %.1f allocs/frame", allocs)
	if !raceenabled.Enabled && allocs != 0 {
		t.Errorf("Encoder.WriteFrame allocates %.1f per frame, want 0", allocs)
	}

}

// TestAllocBudgetReadFrameInto pins the streaming frame read path at
// zero steady-state allocations once the reusable buffer has grown to
// the largest frame seen.
func TestAllocBudgetReadFrameInto(t *testing.T) {
	var e Encoder
	var wire bytes.Buffer
	msg := Msg{Conn: 1, Time: bagio.Time{Sec: 7}, Data: bytes.Repeat([]byte{0x42}, 2048)}
	if err := e.WriteMsg(&wire, msg); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), wire.Bytes()...)
	r := bytes.NewReader(frame)
	var buf []byte
	if _, err := ReadFrameInto(r, 0, &buf); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		f, err := ReadFrameInto(r, 0, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Op != OpMsg {
			t.Fatalf("op = 0x%02x", f.Op)
		}
	})
	t.Logf("ReadFrameInto: %.1f allocs/frame", allocs)
	if !raceenabled.Enabled && allocs != 0 {
		t.Errorf("ReadFrameInto allocates %.1f per frame, want 0", allocs)
	}
}

// TestEncoderMatchesEncodeMsg: the Encoder's direct-to-frame encoding
// is byte-identical to WriteFrame over EncodeMsg's payload.
func TestEncoderMatchesEncodeMsg(t *testing.T) {
	msgs := []Msg{
		{},
		{Conn: 9, Time: bagio.Time{Sec: 1, NSec: 2}, Data: []byte("payload")},
		{Conn: 65535, Time: bagio.Time{Sec: 4294967295, NSec: 999999999}, Data: bytes.Repeat([]byte{0xFF}, 70000)},
	}
	for i, m := range msgs {
		var want bytes.Buffer
		if err := WriteFrame(&want, OpMsg, EncodeMsg(m)); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		var e Encoder
		if err := e.WriteMsg(&got, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("msg %d: Encoder.WriteMsg frame differs from WriteFrame(EncodeMsg)", i)
		}
		// A batch's appends encode the same frame, whole or head first.
		if !bytes.Equal(AppendMsg(nil, m), want.Bytes()) {
			t.Errorf("msg %d: AppendMsg frame differs from WriteFrame(EncodeMsg)", i)
		}
		if head := AppendMsgHead(nil, m); len(head) != MsgHeadSize || !bytes.Equal(append(head, m.Data...), want.Bytes()) {
			t.Errorf("msg %d: AppendMsgHead + payload differs from WriteFrame(EncodeMsg)", i)
		}
		// And it must round-trip through the streaming read path.
		var buf []byte
		f, err := ReadFrameInto(bytes.NewReader(got.Bytes()), 0, &buf)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeMsg(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Conn != m.Conn || dec.Time != m.Time || !bytes.Equal(dec.Data, m.Data) {
			t.Errorf("msg %d: round-trip mismatch", i)
		}
	}

}
