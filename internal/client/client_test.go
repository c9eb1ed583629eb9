package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/raceenabled"
	"repro/internal/server/wire"
)

// fakeServer accepts one connection and runs handler over it.
func fakeServer(t *testing.T, handler func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go handler(nc)
		}
	}()
	return ln.Addr().String()
}

func TestDialFailsAfterAttempts(t *testing.T) {
	// Grab a port that refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = Dial(addr, Options{Attempts: 3, Backoff: time.Millisecond, BackoffMax: 4 * time.Millisecond})
	if err == nil {
		t.Fatal("Dial to a closed port succeeded")
	}
	// 3 attempts with 1ms + 2ms backoff: fast, but it must have slept.
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Dial took %v; backoff not capped", d)
	}
}

// TestBackoffJitterBounds: the jittered exponential backoff must stay
// inside [cap/2, cap] where cap doubles per attempt and saturates at
// BackoffMax — the bounds the cluster rotation loop's latency math
// depends on.
func TestBackoffJitterBounds(t *testing.T) {
	o := Options{Backoff: 10 * time.Millisecond, BackoffMax: 60 * time.Millisecond}
	o.fill()
	tests := []struct {
		attempt int
		lo, hi  time.Duration
	}{
		{1, 5 * time.Millisecond, 10 * time.Millisecond},
		{2, 10 * time.Millisecond, 20 * time.Millisecond},
		{3, 20 * time.Millisecond, 40 * time.Millisecond},
		{4, 30 * time.Millisecond, 60 * time.Millisecond}, // 80ms cap -> BackoffMax
		{9, 30 * time.Millisecond, 60 * time.Millisecond}, // shift overflow -> BackoffMax
		{40, 30 * time.Millisecond, 60 * time.Millisecond},
		{64, 30 * time.Millisecond, 60 * time.Millisecond}, // 1<<63 territory
	}
	for _, tt := range tests {
		for trial := 0; trial < 200; trial++ {
			d := o.backoff(tt.attempt)
			if d < tt.lo || d > tt.hi {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", tt.attempt, d, tt.lo, tt.hi)
			}
		}
	}
	// The jitter must actually jitter: 200 samples of a 30ms-wide range
	// collapsing to one value means the randomness is gone.
	seen := map[time.Duration]bool{}
	for trial := 0; trial < 200; trial++ {
		seen[o.backoff(4)] = true
	}
	if len(seen) < 2 {
		t.Error("backoff(4) returned a single value across 200 samples; jitter lost")
	}
}

// TestDialContextCancelDuringBackoff: canceling the context while Dial
// sleeps between attempts must return promptly — not after the full
// backoff schedule.
func TestDialContextCancelDuringBackoff(t *testing.T) {
	// A port that refuses connections, so every attempt fails fast and
	// Dial spends its time in backoff sleeps.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := DialContext(ctx, addr, Options{
			Attempts: 10,
			Backoff:  2 * time.Second, // without the fix this dial blocks ~18s+
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it fail attempt 1 and enter backoff
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("Dial returned after %v; cancellation did not interrupt backoff", d)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("DialContext ignored cancellation during backoff")
	}
}

// TestServerErrorTyped: ERR frames surface as *ServerError so the
// cluster layer can tell deterministic failures from transport faults.
func TestServerErrorTyped(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			if _, err := wire.ReadFrame(nc, 0); err != nil {
				return
			}
			wire.WriteFrame(nc, wire.OpErr, []byte("unknown topic \"/nope\""))
		}
	})
	cl, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Open("b")
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *ServerError", err, err)
	}
	if se.Canceled() {
		t.Error("semantic server error classified as canceled")
	}
	if (&ServerError{Msg: "query canceled"}).Canceled() != true {
		t.Error("cancellation ERR not classified as canceled")
	}
}

// TestQueryRetriesBusy: the client must resend a BUSY-rejected QUERY
// with backoff and succeed when the server admits it.
func TestQueryRetriesBusy(t *testing.T) {
	var queries atomic.Int32
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			f, err := wire.ReadFrame(nc, 0)
			if err != nil {
				return
			}
			if f.Op != wire.OpQuery {
				wire.WriteFrame(nc, wire.OpErr, []byte("unexpected"))
				return
			}
			if queries.Add(1) == 1 {
				wire.WriteFrame(nc, wire.OpBusy, []byte("server query limit reached"))
				continue
			}
			wire.WriteFrame(nc, wire.OpQueryHdr, wire.EncodeQueryHdr([]wire.ConnMeta{{Topic: "/t", Type: "ty"}}))
			wire.WriteFrame(nc, wire.OpEnd, wire.EncodeEnd(wire.End{}))
		}
	})
	cl, err := Dial(addr, Options{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Query("b", QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	for st.Next() {
		t.Error("empty stream yielded a message")
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if n := queries.Load(); n != 2 {
		t.Errorf("server saw %d QUERY frames, want 2", n)
	}
}

// TestQueryBusyExhausted: with Attempts 1 a BUSY reject surfaces as
// ErrBusy without retrying.
func TestQueryBusyExhausted(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			if _, err := wire.ReadFrame(nc, 0); err != nil {
				return
			}
			wire.WriteFrame(nc, wire.OpBusy, []byte("no"))
		}
	})
	cl, err := Dial(addr, Options{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query("b", QuerySpec{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	// The client must be reusable after a BUSY reject (framing intact):
	// a non-query request still round-trips.
	if _, err := cl.Query("b", QuerySpec{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("second query err = %v, want ErrBusy", err)
	}
}

// TestStreamGrantsCredit: a stream asks for byte-counted credit and
// grants back the bytes of the frames it consumed, so a strict server —
// one that sends a frame only while what it has sent beyond the grants
// is under the window — streams to the end.
func TestStreamGrantsCredit(t *testing.T) {
	const total, window = 20, 64
	frame := wire.MsgHeadSize + 1 // each MSG carries a one-byte payload
	var credits atomic.Int64
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		f, err := wire.ReadFrame(nc, 0)
		if err != nil || f.Op != wire.OpQuery {
			return
		}
		q, err := wire.DecodeQuery(f.Payload)
		if err != nil || q.Window != window || !q.ByteCredit {
			wire.WriteFrame(nc, wire.OpErr, []byte(fmt.Sprintf("want a byte-counted window of %d, got %+v", window, q)))
			return
		}
		go func() { // credit reader
			for {
				f, err := wire.ReadFrame(nc, 0)
				if err != nil {
					return
				}
				if f.Op == wire.OpCredit {
					if n, err := wire.DecodeCredit(f.Payload); err == nil {
						credits.Add(int64(n))
					}
				}
			}
		}()
		wire.WriteFrame(nc, wire.OpQueryHdr, wire.EncodeQueryHdr([]wire.ConnMeta{{Topic: "/t", Type: "ty"}}))
		for sent := 0; sent < total; {
			if int64(sent*frame) >= int64(q.Window)+credits.Load() {
				time.Sleep(time.Millisecond)
				continue
			}
			wire.WriteFrame(nc, wire.OpMsg, wire.EncodeMsg(wire.Msg{Conn: 0, Data: []byte{byte(sent)}}))
			sent++
		}
		wire.WriteFrame(nc, wire.OpEnd, wire.EncodeEnd(wire.End{Count: total, Bytes: total}))
	})
	cl, err := Dial(addr, Options{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Query("b", QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for st.Next() {
		if got := st.Message().Data[0]; got != byte(n) {
			t.Fatalf("message %d carries payload %d", n, got)
		}
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Errorf("received %d messages, want %d", n, total)
	}
	// The strict server sent the last frame only once the grants exceeded
	// all but the last frame's bytes, less the window.
	if got := credits.Load(); got <= int64((total-1)*frame-window) {
		t.Errorf("client granted %d bytes of credit for a %d-byte stream with a %d-byte window", got, total*frame, window)
	}
}

// TestStreamCloseDrains: Close on a half-consumed stream cancels it
// server-side and leaves the client usable for the next request.
func TestStreamCloseDrains(t *testing.T) {
	var canceled atomic.Bool
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			f, err := wire.ReadFrame(nc, 0)
			if err != nil {
				return
			}
			switch f.Op {
			case wire.OpQuery:
				wire.WriteFrame(nc, wire.OpQueryHdr, wire.EncodeQueryHdr([]wire.ConnMeta{{Topic: "/t", Type: "ty"}}))
				for i := 0; i < 3; i++ {
					wire.WriteFrame(nc, wire.OpMsg, wire.EncodeMsg(wire.Msg{Conn: 0, Data: []byte{byte(i)}}))
				}
			case wire.OpCancel:
				canceled.Store(true)
				wire.WriteFrame(nc, wire.OpErr, []byte("query canceled"))
			case wire.OpPing:
				wire.WriteFrame(nc, wire.OpPong, f.Payload)
			}
		}
	})
	cl, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Query("b", QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first message: %v", st.Err())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !canceled.Load() {
		t.Error("server never saw a CANCEL frame")
	}
	if _, err := cl.Ping(); err != nil {
		t.Fatalf("client unusable after Stream.Close: %v", err)
	}
}

// replayConn is a connection whose peer sends stream over and over (or
// once, then EOF, when once is set) and swallows whatever it is sent.
type replayConn struct {
	net.Conn
	stream []byte
	off    int
	once   bool
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.off == len(c.stream) {
		if c.once {
			return 0, io.EOF
		}
		c.off = 0
	}
	n := copy(p, c.stream[c.off:])
	c.off += n
	return n, nil
}

func (c *replayConn) Write(p []byte) (int, error) { return len(p), nil }

// streamOver is a Stream of one /t connection reading from nc.
func streamOver(nc net.Conn) *Stream {
	c := &Client{nc: nc, fr: wire.NewReader(bufio.NewReaderSize(nc, 64<<10)), streaming: true}
	return &Stream{c: c, conns: []wire.ConnMeta{{Topic: "/t", Type: "ty"}}, creditAt: 64 << 10, flow: true}
}

// TestStreamReadsFramesInPlace: a MSG frame that fits the 64 KiB read
// buffer is decoded where it lies — Next allocates nothing per frame,
// credit grants included — while a lying length prefix larger than the
// buffer still costs the client only the bytes that actually arrive.
func TestStreamReadsFramesInPlace(t *testing.T) {
	var frames []byte
	for i := 0; i < 7; i++ { // sizes that straddle the buffer's refills
		frames = wire.AppendMsg(frames, wire.Msg{Conn: 0, Data: bytes.Repeat([]byte{byte(i)}, 345+i*1000)})
	}
	st := streamOver(&replayConn{stream: frames})
	// Where they lie: the first two payloads are as far apart in memory
	// as in the stream, not copied one after the other to one place.
	var at [2]uintptr
	for i := range at {
		if !st.Next() {
			t.Fatal(st.Err())
		}
		at[i] = uintptr(unsafe.Pointer(unsafe.SliceData(st.Message().Data)))
	}
	if d := at[1] - at[0]; d != uintptr(wire.MsgHeadSize+345) {
		t.Errorf("the second payload lies %d bytes after the first, want the first frame's %d: frames are copied out of the read buffer", d, wire.MsgHeadSize+345)
	}
	for i := 0; i < 100; i++ { // warm up: the first credit grant sizes the encoder's buffer
		if !st.Next() {
			t.Fatal(st.Err())
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !st.Next() {
			t.Fatal(st.Err())
		}
	})
	t.Logf("Stream.Next: %.2f allocs/frame", allocs)
	if !raceenabled.Enabled && allocs != 0 {
		t.Errorf("Stream.Next allocates %.2f per frame that fits the read buffer, want 0", allocs)
	}

	// The header claims the largest frame the protocol allows; 100 KB
	// of it arrive before the peer hangs up.
	lie := binary.BigEndian.AppendUint32(nil, wire.DefaultMaxFrame)
	lie = append(append(lie, wire.OpMsg), make([]byte, 100<<10)...)
	st = streamOver(&replayConn{stream: lie, once: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if st.Next() || !errors.Is(st.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("a frame cut 100 KB into its claimed %d bytes: err %v, want io.ErrUnexpectedEOF", wire.DefaultMaxFrame, st.Err())
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("reading 100 KB of a frame claiming %d bytes allocated %d bytes", wire.DefaultMaxFrame, got)
	}
}
