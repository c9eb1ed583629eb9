// Package client is the Go client library for borad, BORA's network
// bag-serving daemon (internal/server). It speaks the wire protocol of
// internal/server/wire over one TCP connection:
//
//	cl, err := client.Dial("127.0.0.1:4650", client.Options{})
//	st, err := cl.Query("robot1", client.QuerySpec{Topics: []string{"/imu"}})
//	for st.Next() {
//	    m := st.Message() // Topic, Type, Time, Data
//	}
//	err = st.Err()
//
// Dial and Query retry with exponential backoff — Dial on connection
// refusal, Query on the server's typed BUSY admission reject — and a
// query stream acknowledges consumed frames through a bounded credit
// window, so the server never runs more than Options.Window frames
// ahead of the consumer.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/bagio"
	"repro/internal/obs"
	"repro/internal/server/wire"
)

// Defaults used when an Options field is zero.
const (
	// DefaultDialTimeout bounds each TCP connect attempt and is not an
	// option: a caller that wants a tighter deadline gives DialContext one.
	DefaultDialTimeout = 5 * time.Second
	DefaultAttempts    = 4
	DefaultBackoff     = 50 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
	// DefaultWindow is counted in frames, and the server sends frames in
	// batches of up to 64 KiB: the window has to span several batches or
	// every batch ends in a credit stall. 512 of the paper's typical
	// ≈345-byte messages are ≈177 KB — about the bandwidth-delay product
	// of 10 GbE at 140 µs — and cost the server nothing: it holds one
	// batch buffer per connection whatever the window; TCP holds the rest.
	DefaultWindow = 512
)

// ErrBusy wraps the server's typed BUSY reject; surfaced only after
// the retry budget is spent. Test with errors.Is.
var ErrBusy = errors.New("client: server busy")

// ServerError is a request failure the server reported in an ERR frame.
// The connection's framing stayed intact, and — unlike a transport
// error — retrying elsewhere will not help: every daemon of a cluster
// serves the same shared back end, so "unknown topic" is "unknown
// topic" everywhere. The one exception is a server-side cancellation
// ("query canceled": the daemon was draining or dying mid-stream),
// which the cluster layer treats as retryable; see Canceled.
type ServerError struct {
	Msg string
}

func (e *ServerError) Error() string { return "client: server error: " + e.Msg }

// serverCanceledMsg is the exact ERR payload internal/server writes
// when a query's context dies server-side (drain deadline, daemon
// shutdown). It marks the only ServerError worth failing over on.
const serverCanceledMsg = "query canceled"

// Canceled reports whether the error is the server telling us it
// canceled the query on its side — the daemon is draining or dying, so
// another replica may well complete the work.
func (e *ServerError) Canceled() bool { return e.Msg == serverCanceledMsg }

// ErrStreamActive rejects requests issued while a query stream is
// being consumed on the same connection.
var ErrStreamActive = errors.New("client: a query stream is active on this connection")

// Options configure a Client.
type Options struct {
	// Attempts is the total try budget for Dial and for each Query's
	// BUSY retries; zero selects DefaultAttempts, 1 disables retry.
	Attempts int
	// Backoff is the sleep before the second attempt, doubling per
	// attempt up to BackoffMax; zeros select DefaultBackoff/-Max.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Window is the query flow-control window: the server runs at most
	// this many MSG frames ahead of what the stream has acknowledged.
	// Zero selects DefaultWindow.
	Window int
	// Obs, when non-nil, records client-side query spans (client.query)
	// on this registry, tagged with each query's trace id — the client
	// half of a cross-process trace (see obs.MergeChromeTraces). Nil
	// disables recording; queries still carry trace ids on the wire.
	Obs *obs.Registry
}

func (o *Options) fill() {
	if o.Attempts <= 0 {
		o.Attempts = DefaultAttempts
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultBackoff
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
}

// backoff returns the sleep before attempt i (i ≥ 1): exponential in i
// with equal jitter, uniform in [cap/2, cap] where cap = Backoff<<(i-1)
// bounded by BackoffMax. The jitter keeps a fleet of clients that all
// hit the same BUSY daemon from re-converging on it in lockstep; the
// cap keeps the bounds testable (see TestBackoffJitterBounds).
func (o *Options) backoff(i int) time.Duration {
	d := o.Backoff << (i - 1)
	if d > o.BackoffMax || d <= 0 {
		d = o.BackoffMax
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(d-half)+1))
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Client is one connection to a borad daemon. Methods are safe for
// concurrent use but execute one request at a time; while a query
// stream is open, other requests fail with ErrStreamActive.
type Client struct {
	addr    string
	opts    Options
	queryOp *obs.Op // client.query: one span per Query call (nil = no-op)

	mu        sync.Mutex
	nc        net.Conn
	br        *bufio.Reader
	enc       wire.Encoder // reusable frame-assembly buffer; requests go out one frame per Write
	rbuf      []byte       // reusable inbound payload buffer (wire.ReadFrameInto)
	streaming bool
}

// Dial connects to a borad daemon, retrying failed connects
// opts.Attempts times with jittered exponential backoff.
func Dial(addr string, opts Options) (*Client, error) {
	return DialContext(context.Background(), addr, opts)
}

// DialContext is Dial bounded by ctx: cancellation aborts both the
// in-flight connect and — crucially for failover latency — the backoff
// sleeps between attempts, returning promptly with ctx's error.
func DialContext(ctx context.Context, addr string, opts Options) (*Client, error) {
	opts.fill()
	var lastErr error
	for i := 0; i < opts.Attempts; i++ {
		if i > 0 {
			if err := sleepCtx(ctx, opts.backoff(i)); err != nil {
				return nil, fmt.Errorf("client: dial %s: %w (after %d attempts)", addr, err, i)
			}
		}
		d := net.Dialer{Timeout: DefaultDialTimeout}
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return &Client{
				addr:    addr,
				opts:    opts,
				queryOp: opts.Obs.Op("client.query"),
				nc:      nc,
				br:      bufio.NewReaderSize(nc, 64<<10),
			}, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // canceled mid-connect: don't burn remaining attempts
		}
	}
	return nil, fmt.Errorf("client: dial %s: %w (after %d attempts)", addr, lastErr, opts.Attempts)
}

// Addr returns the address the client dialed.
func (c *Client) Addr() string { return c.addr }

// Close tears the connection down. Closing with a stream in flight
// aborts it server-side (the daemon observes the disconnect and cancels
// the query).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nil {
		return nil
	}
	err := c.nc.Close()
	c.nc = nil
	return err
}

// writeFrame sends one frame through the connection's reusable encode
// buffer in one Write call. Every frame sent this way is a request or an
// acknowledgement the server is waiting for, so none is held back to
// batch with the next (the server batches its MSG frames; see
// internal/server's conn); callers hold c.mu.
func (c *Client) writeFrame(op byte, payload []byte) error {
	if c.nc == nil {
		return net.ErrClosed
	}
	return c.enc.WriteFrame(c.nc, op, payload)
}

// readFrame reads one frame into the client's reusable payload buffer.
// The frame's Payload is valid only until the next readFrame; every
// caller decodes (copying what it keeps) before reading again.
func (c *Client) readFrame() (wire.Frame, error) {
	return wire.ReadFrameInto(c.br, wire.DefaultMaxFrame, &c.rbuf)
}

// roundTrip sends one request and reads its single response frame,
// mapping ERR and BUSY frames to errors; callers hold c.mu.
func (c *Client) roundTrip(op byte, payload []byte) (wire.Frame, error) {
	if err := c.writeFrame(op, payload); err != nil {
		return wire.Frame{}, err
	}
	f, err := c.readFrame()
	if err != nil {
		return wire.Frame{}, err
	}
	switch f.Op {
	case wire.OpErr:
		return wire.Frame{}, &ServerError{Msg: string(f.Payload)}
	case wire.OpBusy:
		return wire.Frame{}, fmt.Errorf("%w: %s", ErrBusy, f.Payload)
	}
	return f, nil
}

func (c *Client) locked(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.streaming {
		return ErrStreamActive
	}
	return fn()
}

// Ping round-trips an empty frame and returns the measured latency.
func (c *Client) Ping() (time.Duration, error) {
	var rtt time.Duration
	err := c.locked(func() error {
		start := time.Now()
		f, err := c.roundTrip(wire.OpPing, nil)
		if err != nil {
			return err
		}
		if f.Op != wire.OpPong {
			return fmt.Errorf("client: ping answered with opcode 0x%02x", f.Op)
		}
		rtt = time.Since(start)
		return nil
	})
	return rtt, err
}

// Open asks the daemon to open (and pool) the named bag, surfacing any
// open error without starting a stream.
func (c *Client) Open(name string) error {
	return c.locked(func() error {
		f, err := c.roundTrip(wire.OpOpen, []byte(name))
		if err != nil {
			return err
		}
		if f.Op != wire.OpOK {
			return fmt.Errorf("client: open answered with opcode 0x%02x", f.Op)
		}
		return nil
	})
}

// Info returns the named bag's topics with message counts.
func (c *Client) Info(name string) (wire.BagInfo, error) {
	var bi wire.BagInfo
	err := c.locked(func() error {
		f, err := c.roundTrip(wire.OpInfo, []byte(name))
		if err != nil {
			return err
		}
		if f.Op != wire.OpBagInfo {
			return fmt.Errorf("client: info answered with opcode 0x%02x", f.Op)
		}
		bi, err = wire.DecodeBagInfo(f.Payload)
		return err
	})
	return bi, err
}

// Stats returns the daemon's serving counters.
func (c *Client) Stats() (wire.ServerStats, error) {
	var st wire.ServerStats
	err := c.locked(func() error {
		f, err := c.roundTrip(wire.OpStats, nil)
		if err != nil {
			return err
		}
		if f.Op != wire.OpOK {
			return fmt.Errorf("client: stats answered with opcode 0x%02x", f.Op)
		}
		return json.Unmarshal(f.Payload, &st)
	})
	return st, err
}

// QuerySpec describes one remote query — the network mirror of
// core.QuerySpec's declarative fields (execution knobs like Workers
// stay server-side).
type QuerySpec struct {
	// Topics to read; empty selects every topic of the bag.
	Topics []string
	// Start and End bound the query to [Start, End]; a zero End means
	// end of bag.
	Start, End bagio.Time
	// Chrono delivers messages in global timestamp order across topics
	// (core.OrderTime) instead of grouped by topic.
	Chrono bool
	// Follow streams the bag's live tail after its sealed prefix: Next
	// blocks on new messages until the recording seals or the stream is
	// Closed. The stream's connection table may grow mid-stream as the
	// recording introduces topics.
	Follow bool
	// QueryID is the 64-bit trace id the query travels under; zero (the
	// default) mints a fresh random id per Query call. The id is sent on
	// the wire so the server's spans and slow-query records carry the
	// same identity the client logs — Stream.QueryID reports what was
	// used.
	QueryID uint64
}

// Query starts a streaming query against the named bag, retrying BUSY
// rejects with backoff. On success the returned Stream must be
// consumed (Next until false) or Closed before the next request on
// this client.
func (c *Client) Query(name string, q QuerySpec) (*Stream, error) {
	qid := q.QueryID
	if qid == 0 {
		qid = obs.NewTraceID()
	}
	req := wire.QueryReq{
		Name:    name,
		Topics:  q.Topics,
		Start:   q.Start,
		End:     q.End,
		Follow:  q.Follow,
		TraceID: qid,
		Window:  uint32(c.opts.Window),
	}
	if q.Chrono {
		req.Order = wire.OrderTime
	}
	var lastErr error
	for i := 0; i < c.opts.Attempts; i++ {
		if i > 0 {
			time.Sleep(c.opts.backoff(i))
		}
		// One span per attempt (a BUSY retry is a fresh exchange), tagged
		// with the query's trace id. The server nests its own spans under
		// ParentSpan when the merged trace is stitched, so the payload is
		// re-encoded per attempt with the attempt's span id.
		sp := c.queryOp.StartQuery(qid)
		req.ParentSpan = sp.SpanID()
		payload := wire.EncodeQuery(req)
		var st *Stream
		err := c.locked(func() error {
			f, err := c.roundTrip(wire.OpQuery, payload)
			if err != nil {
				return err
			}
			if f.Op != wire.OpQueryHdr {
				return fmt.Errorf("client: query answered with opcode 0x%02x", f.Op)
			}
			conns, err := wire.DecodeQueryHdr(f.Payload)
			if err != nil {
				return err
			}
			c.streaming = true
			creditAt := c.opts.Window / 2
			if creditAt < 1 {
				creditAt = 1
			}
			st = &Stream{c: c, conns: conns, creditAt: creditAt, flow: true, sp: sp, qid: qid}
			return nil
		})
		if err == nil {
			return st, nil
		}
		sp.EndErr(err)
		lastErr = err
		if !errors.Is(err, ErrBusy) {
			return nil, err
		}
	}
	return nil, lastErr
}

// Message is one streamed query result. Data is borrowed from the
// stream's reusable frame buffer: it is valid only until the next call
// to Next or Close and must not be mutated — the network mirror of
// core.MessageRef's ownership contract. Call Copy or Retain to keep
// the bytes.
type Message struct {
	Topic string
	Type  string
	Time  bagio.Time
	Data  []byte
}

// Copy returns an owned copy of the message payload.
func (m Message) Copy() []byte { return append([]byte(nil), m.Data...) }

// Retain returns the Message with Data replaced by an owned copy,
// safe to hold past the next Next.
func (m Message) Retain() Message {
	m.Data = m.Copy()
	return m
}

// Stream iterates a query's results:
//
//	for st.Next() { use(st.Message()) }
//	err := st.Err()
//
// Next acknowledges consumed frames through the credit window as it
// goes. A Stream is not safe for concurrent use.
type Stream struct {
	c        *Client
	conns    []wire.ConnMeta
	creditAt int
	flow     bool     // still granting credit; false once a CREDIT write failed
	sp       obs.Span // client.query span; ended when the stream ends
	qid      uint64   // the query's trace id

	unacked  int
	cur      Message
	count    uint64
	bytes    uint64
	err      error
	finished bool
}

// QueryID returns the 64-bit trace id the query ran under — the same
// id the server's spans and slow-query records carry.
func (st *Stream) QueryID() uint64 { return st.qid }

// Next advances to the next message, returning false at end of stream
// or on error (check Err).
func (st *Stream) Next() bool {
	if st.finished || st.err != nil {
		return false
	}
	c := st.c
	if st.flow && st.unacked >= st.creditAt {
		c.mu.Lock()
		err := c.writeFrame(wire.OpCredit, wire.EncodeCredit(uint32(st.unacked)))
		c.mu.Unlock()
		if err != nil {
			// Not fatal: the server may have finished the stream and
			// closed the connection while END is still buffered on our
			// side (a drain does exactly this). Stop granting and keep
			// reading; a genuinely dead connection fails the next read.
			st.flow = false
		} else {
			st.unacked = 0
		}
	}
	for {
		f, err := c.readFrame()
		if err != nil {
			st.fail(err)
			return false
		}
		switch f.Op {
		case wire.OpQueryHdr:
			// Mid-stream table resend: a followed recording introduced a
			// topic. The new table extends the old one in place.
			conns, err := wire.DecodeQueryHdr(f.Payload)
			if err != nil {
				st.fail(err)
				return false
			}
			st.conns = conns
			continue
		case wire.OpMsg:
			m, err := wire.DecodeMsg(f.Payload)
			if err != nil {
				st.fail(err)
				return false
			}
			if int(m.Conn) >= len(st.conns) {
				st.fail(fmt.Errorf("client: message for unknown connection %d", m.Conn))
				return false
			}
			meta := st.conns[m.Conn]
			st.cur = Message{Topic: meta.Topic, Type: meta.Type, Time: m.Time, Data: m.Data}
			st.unacked++
			st.count++
			st.bytes += uint64(len(m.Data))
			return true
		case wire.OpEnd:
			end, err := wire.DecodeEnd(f.Payload)
			if err != nil {
				st.fail(err)
				return false
			}
			if end.Count != st.count {
				st.fail(fmt.Errorf("client: stream ended after %d messages, server reports %d", st.count, end.Count))
				return false
			}
			st.finish()
			return false
		case wire.OpErr:
			// A terminal ERR ends the stream cleanly: the framing is
			// intact, the connection stays usable.
			st.err = &ServerError{Msg: string(f.Payload)}
			st.finish()
			return false
		default:
			st.fail(fmt.Errorf("client: unexpected opcode 0x%02x in stream", f.Op))
			return false
		}
	}
}

// Message returns the message Next advanced to. The Message (and in
// particular its borrowed Data) is valid until the next call to Next
// or Close; see the Message ownership contract.
func (st *Stream) Message() Message { return st.cur }

// Err returns the terminal error, if any (nil after a complete stream).
func (st *Stream) Err() error { return st.err }

// Received returns how many messages and payload bytes the stream has
// delivered so far.
func (st *Stream) Received() (count, bytes uint64) { return st.count, st.bytes }

// Close abandons the stream early: it sends CANCEL and drains frames
// until the server's terminal frame, leaving the connection reusable.
// Closing a finished stream is a no-op.
func (st *Stream) Close() error {
	if st.finished || st.err != nil {
		return nil
	}
	st.c.mu.Lock()
	err := st.c.writeFrame(wire.OpCancel, nil)
	st.c.mu.Unlock()
	if err != nil {
		st.fail(err)
		return err
	}
	for {
		f, err := st.c.readFrame()
		if err != nil {
			st.fail(err)
			return err
		}
		switch f.Op {
		case wire.OpEnd, wire.OpErr:
			st.finish()
			return nil
		}
	}
}

func (st *Stream) finish() {
	st.finished = true
	if st.err != nil {
		st.sp.EndErr(st.err)
	} else {
		st.sp.EndBytes(int64(st.bytes))
	}
	st.c.mu.Lock()
	st.c.streaming = false
	st.c.mu.Unlock()
}

// fail records a connection-level stream failure; the conn stays marked
// streaming (its framing is undefined now), so follow-up requests error
// rather than desync.
func (st *Stream) fail(err error) {
	st.err = err
	st.finished = true
	st.sp.EndErr(err)
}
