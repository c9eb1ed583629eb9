package wire

import (
	"bytes"
	"io"
	"math/rand/v2"
	"testing"

	"repro/internal/bagio"
	"repro/internal/raceenabled"
)

// TestAllocBudgetEncoder pins the streaming frame encode path at zero
// steady-state allocations: once the Encoder's buffer covers the
// largest frame, WriteMsg and WriteFrame allocate nothing per frame,
// and once it covers the largest batch, neither do appends and Flush.
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

	// The batched path: a run of appended frames of both kinds, one
	// Flush. The first batch grows the buffer to the batch's size.
	const perBatch = 16
	batch := func() {
		for i := 0; i < perBatch; i++ {
			e.AppendMsg(msg)
			e.AppendFrame(OpQueryHdr, payload)
		}
		if err := e.Flush(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	allocs = testing.AllocsPerRun(100, batch)
	t.Logf("Encoder append+flush: %.1f allocs/batch of %d frames", allocs, 2*perBatch)
	if !raceenabled.Enabled && allocs != 0 {
		t.Errorf("Encoder append+flush allocates %.1f per batch, want 0", allocs)
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

	// Batching moves write boundaries and nothing else: for random frame
	// sequences flushed at random points, what reaches the writer is the
	// per-frame encoding concatenated, and every Write is whole frames.
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 50; round++ {
		var e Encoder
		var want []byte
		w := &frameBoundaryWriter{t: t}
		for i, n := 0, 1+rng.IntN(40); i < n; i++ {
			data := make([]byte, rng.IntN(3)*rng.IntN(2000))
			for j := range data {
				data[j] = byte(rng.Uint32())
			}
			m := Msg{Conn: uint16(rng.Uint32()), Time: bagio.Time{Sec: rng.Uint32(), NSec: rng.Uint32()}, Data: data}
			var err error
			switch rng.IntN(5) {
			case 0:
				e.AppendFrame(OpQueryHdr, data)
				want = AppendFrame(want, OpQueryHdr, data)
			case 1: // a non-MSG frame: append + flush of everything pending
				err = e.WriteFrame(w, OpEnd, data)
				want = AppendFrame(want, OpEnd, data)
			case 2:
				err = e.WriteMsgOp(w, OpRecMsg, m)
				want = AppendFrame(want, OpRecMsg, EncodeMsg(m))
			default:
				e.AppendMsg(m)
				want = AppendFrame(want, OpMsg, EncodeMsg(m))
			}
			if err == nil && rng.IntN(4) == 0 {
				err = e.Flush(w)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(w); err != nil {
			t.Fatal(err)
		}
		if e.Buffered() != 0 {
			t.Fatalf("round %d: %d bytes pending after Flush", round, e.Buffered())
		}
		if !bytes.Equal(w.got, want) {
			t.Fatalf("round %d: batched stream (%d bytes in %d writes) differs from the per-frame encoding (%d bytes)",
				round, len(w.got), w.writes, len(want))
		}
	}
}

// frameBoundaryWriter collects what it is written and fails the test on
// an empty Write or one that is not a whole number of frames.
type frameBoundaryWriter struct {
	t      *testing.T
	got    []byte
	writes int
}

func (w *frameBoundaryWriter) Write(p []byte) (int, error) {
	w.t.Helper()
	if len(p) == 0 {
		w.t.Error("empty Write")
	}
	for r := bytes.NewReader(p); r.Len() > 0; {
		if _, err := ReadFrame(r, 0); err != nil {
			w.t.Errorf("Write of %d bytes is not whole frames: %v", len(p), err)
			break
		}
	}
	w.got = append(w.got, p...)
	w.writes++
	return len(p), nil
}
