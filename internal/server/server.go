// Package server implements borad, BORA's network bag-serving daemon:
// a TCP front end over the shared serving pool (internal/pool) speaking
// the length-prefixed binary protocol of internal/server/wire. It is
// the remote half of the paper's swarm-analysis scenario (Section IV-E)
// — N analysis processes hammering shared bags — turned into a real
// serving layer:
//
//   - Admission control. Concurrent queries are bounded globally
//     (Options.MaxQueries) and to one stream per connection; rejected
//     requests get a typed BUSY frame, never a queue without bound.
//   - Flow control. A query carries the client's credit window: the
//     number of MSG frames the server may run ahead of what the client
//     has acknowledged. Frames leave in batches (see conn), so the
//     daemon's memory per stream is one batch buffer; TCP bounds the
//     rest, and one slow reader holds buffers, not the daemon.
//   - Cancellation. Client disconnect, a CANCEL frame, or drain
//     deadline all cancel a context threaded down through
//     core.Bag.QueryContext — an abandoned stream stops reading from
//     disk within one message batch.
//   - Graceful drain. Shutdown stops accepting, lets in-flight streams
//     finish, and force-closes at the caller's deadline. Follow streams
//     and uploads, which have no natural end, are canceled at drain
//     instead of waited on (an upload's acknowledged messages are
//     sealed durable first).
//   - Live ingest. RECORD opens a flow-controlled upload into a new bag
//     (classic or live-segmented); a QUERY with the follow flag streams
//     a live bag's sealed prefix and then its growing tail, resending
//     the connection table when the recording introduces new topics.
//
// Everything is observable under server.* metric names on the backend's
// obs registry, and HTTPHandler exposes /metrics (the registry
// snapshot JSON) and /healthz for sidecar scraping.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/server/wire"
)

// DefaultMaxQueries bounds globally concurrent query streams when
// Options.MaxQueries is zero.
const DefaultMaxQueries = 64

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Options configure a Server.
type Options struct {
	// Pool serves every bag open; it must wrap the server's backend.
	// Nil builds pool.New(b, pool.Options{}).
	Pool *pool.Pool
	// MaxQueries bounds concurrent query streams across all
	// connections; zero selects DefaultMaxQueries.
	MaxQueries int
	// QueryLog, when non-nil, receives one obs.QueryRecord per completed
	// query stream (ok, error or canceled) — the slow-query log served
	// at /slowqueries. Nil disables per-query logging; resource
	// attribution still runs (it feeds spans either way).
	QueryLog *obs.QueryLog
	// Pprof mounts net/http/pprof under /debug/pprof/ on HTTPHandler's
	// mux. Off by default: the profile endpoints can run CPU captures,
	// so they are opt-in rather than ambient.
	Pprof bool
}

// Server is a borad instance. Create with New, feed listeners to Serve,
// stop with Shutdown (graceful) or Close (immediate).
type Server struct {
	b     *core.BORA
	pl    *pool.Pool    // every open
	sem   chan struct{} // global query admission tokens
	qlog  *obs.QueryLog // per-query records; nil = disabled
	pprof bool          // mount /debug/pprof/ on the sidecar

	queryOp   *obs.Op      // server.query: one span per QUERY stream
	reqOp     *obs.Op      // server.request: non-query request frames
	accepted  *obs.Counter // server.conns_accepted
	busyC     *obs.Counter // server.query.busy
	canceledC *obs.Counter // server.query.canceled
	connsG    *obs.Gauge   // server.conns_active
	queriesG  *obs.Gauge   // server.queries_active

	served   atomic.Int64
	draining atomic.Bool

	baseCtx context.Context
	cancel  context.CancelFunc

	mu          sync.Mutex
	lns         map[net.Listener]struct{}
	conns       map[*conn]struct{}
	closed      bool
	drained     chan struct{}
	drainClosed bool
}

// New builds a server over backend b. Metrics register on b's obs
// registry, or on a registry of the server's own when b has none, so
// Stats counts either way.
func New(b *core.BORA, opts Options) *Server {
	if opts.MaxQueries <= 0 {
		opts.MaxQueries = DefaultMaxQueries
	}
	pl := opts.Pool
	if pl == nil {
		pl = pool.New(b, pool.Options{})
	}
	reg := b.Obs()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		b:         b,
		pl:        pl,
		sem:       make(chan struct{}, opts.MaxQueries),
		qlog:      opts.QueryLog,
		pprof:     opts.Pprof,
		queryOp:   reg.Op("server.query"),
		reqOp:     reg.Op("server.request"),
		accepted:  reg.Counter("server.conns_accepted"),
		busyC:     reg.Counter("server.query.busy"),
		canceledC: reg.Counter("server.query.canceled"),
		connsG:    reg.Gauge("server.conns_active"),
		queriesG:  reg.Gauge("server.queries_active"),
		baseCtx:   ctx,
		cancel:    cancel,
		lns:       map[net.Listener]struct{}{},
		conns:     map[*conn]struct{}{},
		drained:   make(chan struct{}),
	}
}

// Serve accepts connections on ln until the listener fails or the
// server shuts down; a drain-triggered stop returns nil. Serve may be
// called on several listeners concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		c := &conn{
			s:  s,
			nc: nc,
			br: bufio.NewReaderSize(nc, 64<<10),
		}
		c.ctx, c.cancelCtx = context.WithCancel(s.baseCtx)
		s.mu.Lock()
		if s.draining.Load() || s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.accepted.Inc()
		s.connsG.Add(1)
		go c.serve()
	}
}

// Shutdown drains the server: listeners close, idle connections drop,
// in-flight query streams run to completion, and their connections
// close behind them. It returns nil once every connection is gone, or
// ctx's error after force-closing whatever remains at the deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	for ln := range s.lns {
		ln.Close()
	}
	var idle []*conn
	for c := range s.conns {
		c.mu.Lock()
		if c.cur == nil {
			idle = append(idle, c)
		} else {
			c.closeWhenDone = true
			if c.cur.follow {
				// A follow stream ends when the recording seals — which a
				// drain must not wait for. Cancel it; the client sees the
				// stream end like any other cancellation.
				c.cur.cancel()
			}
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
	s.checkDrained()
	select {
	case <-s.drained:
		s.finish()
		return nil
	case <-ctx.Done():
		s.finish()
		return ctx.Err()
	}
}

// Close stops the server immediately: listeners close, in-flight
// queries are canceled, connections drop.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	for ln := range s.lns {
		ln.Close()
	}
	s.mu.Unlock()
	s.finish()
	return nil
}

// finish force-closes every remaining connection and cancels the base
// context (aborting any in-flight query).
func (s *Server) finish() {
	s.mu.Lock()
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	for _, c := range conns {
		c.close()
	}
}

// checkDrained closes the drained gate once a draining server has no
// connections left.
func (s *Server) checkDrained() {
	s.mu.Lock()
	if s.draining.Load() && len(s.conns) == 0 && !s.drainClosed {
		s.drainClosed = true
		close(s.drained)
	}
	s.mu.Unlock()
}

// Stats returns a point-in-time summary of the server's serving state.
func (s *Server) Stats() wire.ServerStats {
	ps := s.pl.Stats()
	return wire.ServerStats{
		ConnsAccepted:   s.accepted.Load(),
		ConnsActive:     s.connsG.Load(),
		QueriesActive:   s.queriesG.Load(),
		QueriesServed:   s.served.Load(),
		QueriesBusy:     s.busyC.Load(),
		QueriesCanceled: s.canceledC.Load(),
		Draining:        s.draining.Load(),
		PoolHits:        ps.HandleHits,
		PoolMisses:      ps.HandleMisses,
		PoolResident:    int64(ps.HandlesResident),
	}
}

// readOnly guards a sidecar endpoint: every one of them is a read, so
// anything but GET/HEAD answers 405 with an Allow header.
func readOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// HTTPHandler returns the daemon's HTTP sidecar: /metrics serves the
// backend registry's snapshot JSON (obs.SnapshotHandler), /healthz
// answers 200 "ok" while serving and 503 "draining" once Shutdown has
// begun, /statz serves the wire.ServerStats JSON, and /slowqueries
// serves the query log (obs.QueryLog.Handler; empty without one). All
// endpoints are GET/HEAD only. With Options.Pprof the net/http/pprof
// handlers mount under /debug/pprof/.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", readOnly(obs.SnapshotHandler(s.b.Obs())))
	mux.Handle("/healthz", readOnly(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})))
	mux.Handle("/statz", readOnly(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Stats())
	})))
	mux.Handle("/slowqueries", s.qlog.Handler())
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// conn is one accepted connection. The read loop (serve) owns the
// reader; writes go through wmu because a streaming query goroutine
// and the read loop (PONG, BUSY) write concurrently.
//
// The write side is the per-connection wire.Encoder and nothing else —
// no bufio layer, no writer goroutine, no timer. A query stream appends
// its MSG frames to the encoder's pending batch (writeMsg) and the
// batch leaves as one Write of whole frames at exactly four points:
// when it reaches flushBytes; before query.waitCredit parks (the client
// must see the frames it is to acknowledge); with any non-MSG frame
// (writeFrame appends and flushes everything, so order holds); and when
// a Follow query has delivered everything recorded so far and is about
// to block (core.QuerySpec.Idle). The byte stream is the one a Write
// per frame would produce; only the write boundaries differ.
type conn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader
	// rbuf is the read loop's reusable inbound payload buffer; every
	// handler copies what it keeps before the next frame is read.
	rbuf []byte

	wmu sync.Mutex
	enc wire.Encoder

	ctx       context.Context // conn-scoped; canceled on close
	cancelCtx context.CancelFunc

	mu            sync.Mutex
	cur           *query // the in-flight query stream, if any
	closeWhenDone bool   // drain: close as soon as cur finishes
	closed        bool

	// rec is the in-flight upload, if any, mutated only by the read
	// loop (RECCONN/RECMSG/RECDONE are handled inline); the pointer is
	// read and written under mu because the close path steals it for
	// the final seal.
	rec *recording
}

// recording returns the in-flight upload, nil if none.
func (c *conn) recording() *recording {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec
}

// recording is one in-flight RECORD upload's state.
type recording struct {
	rec    *core.Recorder
	conns  map[uint16]uint32 // client connection ID → recorder connection ID
	count  uint64            // messages accepted
	bytes  uint64            // payload bytes accepted
	since  uint32            // messages since the last credit grant
	window uint32            // credit window; grants of window/2 are sent every window/2
}

// DefaultRecordWindow is the upload credit window the server grants: the
// client may have this many unacknowledged RECMSG frames in flight.
const DefaultRecordWindow = 256

// query is one in-flight QUERY stream's flow-control state.
type query struct {
	ctx       context.Context
	cancel    context.CancelFunc
	follow    bool // live tail: canceled (not waited on) at drain
	unlimited bool
	avail     atomic.Int64
	notify    chan struct{}    // capacity 1; kicked on every credit grant
	aq        *obs.ActiveQuery // per-query resource attribution
	released  bool             // under conn.mu: see conn.release
}

// serve is the connection read loop: it dispatches request frames and,
// while a query streams, keeps consuming CREDIT/CANCEL frames. A read
// error (client disconnect) closes the connection, which cancels the
// conn context and thereby any in-flight query.
func (c *conn) serve() {
	defer c.close()
	for {
		f, err := wire.ReadFrameInto(c.br, wire.DefaultMaxFrame, &c.rbuf)
		if err != nil {
			return
		}
		switch f.Op {
		case wire.OpPing:
			sp := c.s.reqOp.Start()
			err = c.writeFrame(wire.OpPong, f.Payload)
			sp.EndErr(err)
		case wire.OpOpen:
			err = c.handleOpen(f.Payload)
		case wire.OpInfo:
			err = c.handleInfo(f.Payload)
		case wire.OpStats:
			err = c.handleStats()
		case wire.OpQuery:
			err = c.handleQuery(f.Payload)
		case wire.OpCredit:
			var n uint32
			if n, err = wire.DecodeCredit(f.Payload); err == nil {
				c.addCredit(n)
			}
		case wire.OpCancel:
			c.cancelQuery()
		case wire.OpRecord:
			err = c.handleRecord(f.Payload)
		case wire.OpRecConn:
			err = c.handleRecConn(f.Payload)
		case wire.OpRecMsg:
			err = c.handleRecMsg(f.Payload)
		case wire.OpRecDone:
			err = c.handleRecDone()
		default:
			err = fmt.Errorf("unexpected opcode 0x%02x", f.Op)
		}
		if err != nil {
			return
		}
	}
}

func (c *conn) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	rec := c.rec
	c.rec = nil
	c.mu.Unlock()
	if rec != nil {
		// A vanished uploader leaves acknowledged messages on disk; seal
		// them durable rather than leaving the bag mid-recording.
		rec.rec.Seal()
	}
	c.cancelCtx()
	c.nc.Close()
	s := c.s
	s.mu.Lock()
	_, tracked := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if tracked {
		s.connsG.Add(-1)
	}
	s.checkDrained()
}

// flushBytes is the size at which a query stream's pending batch is
// written out: both ends' bufio reader size, so one flush is one read
// for the peer. A frame larger than this leaves as soon as it is
// appended, behind whatever was pending.
const flushBytes = 64 << 10

// writeFrame writes one non-MSG frame behind whatever the connection's
// stream has pending, in one Write.
func (c *conn) writeFrame(op byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.WriteFrame(c.nc, op, payload)
}

// writeMsg adds one MSG frame to the pending batch, encoding the
// message straight into the connection's batch buffer — the
// zero-allocation hot path of a query stream — and flushes once the
// batch is full. m.Data is only read during the call, so the borrowed
// core.MessageRef bytes pass through without a copy.
func (c *conn) writeMsg(m wire.Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.enc.AppendMsg(m)
	if c.enc.Buffered() < flushBytes {
		return nil
	}
	return c.enc.Flush(c.nc)
}

// flush writes out the pending batch; a stream calls it before it
// blocks on anything but the socket.
func (c *conn) flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.Flush(c.nc)
}

// endQuery releases q and writes its terminal frame (END or ERR) behind
// the last pending MSGs. The release comes first so that no request the
// client sends on seeing the frame can still find the finished query in
// its way; both happen under the write lock so that a pipelined QUERY
// admitted in between cannot get its QUERYHDR out ahead of the frame.
func (c *conn) endQuery(q *query, op byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.release(q)
	return c.enc.WriteFrame(c.nc, op, payload)
}

// release frees what a follow-up request can observe of q: the
// connection's stream slot (handleQuery skips a released c.cur), the
// global admission token and the active-queries gauge. c.cur itself
// stays until runQuery returns, so a drain still sees the connection as
// busy while the terminal frame is on its way. Idempotent.
func (c *conn) release(q *query) {
	c.mu.Lock()
	done := q.released
	q.released = true
	c.mu.Unlock()
	if done {
		return
	}
	<-c.s.sem
	c.s.queriesG.Add(-1)
}

// writeErr reports a per-request failure without poisoning the
// connection: the request fails, the conn lives on.
func (c *conn) writeErr(err error) error {
	return c.writeFrame(wire.OpErr, []byte(err.Error()))
}

func (c *conn) handleOpen(payload []byte) error {
	sp := c.s.reqOp.Start()
	name := string(payload)
	if _, err := c.s.pl.AcquireContextSpan(c.ctx, name, sp); err != nil {
		sp.EndErr(err)
		return c.writeErr(err)
	}
	sp.End()
	return c.writeFrame(wire.OpOK, nil)
}

func (c *conn) handleInfo(payload []byte) error {
	sp := c.s.reqOp.Start()
	name := string(payload)
	bi, err := c.bagInfo(name, sp)
	if err != nil {
		sp.EndErr(err)
		return c.writeErr(err)
	}
	sp.End()
	return c.writeFrame(wire.OpBagInfo, wire.EncodeBagInfo(bi))
}

func (c *conn) bagInfo(name string, sp obs.Span) (wire.BagInfo, error) {
	bag, err := c.s.pl.AcquireContextSpan(c.ctx, name, sp)
	if err != nil {
		return wire.BagInfo{}, err
	}
	conns, err := bag.Connections()
	if err != nil {
		return wire.BagInfo{}, err
	}
	bi := wire.BagInfo{Name: name, Topics: make([]wire.TopicInfo, 0, len(conns))}
	for _, conn := range conns {
		n, err := bag.MessageCount(conn.Topic)
		if err != nil {
			return wire.BagInfo{}, err
		}
		bi.Topics = append(bi.Topics, wire.TopicInfo{Topic: conn.Topic, Type: conn.Type, Count: uint64(n)})
	}
	return bi, nil
}

// handleRecord opens an upload stream: the bag is created (live or
// classic), and the OK reply carries the initial credit window —
// the client may have that many RECMSG frames unacknowledged.
func (c *conn) handleRecord(payload []byte) error {
	sp := c.s.reqOp.Start()
	req, err := wire.DecodeRecord(payload)
	if err != nil {
		sp.EndErr(err)
		return c.writeErr(err)
	}
	if c.s.draining.Load() {
		sp.End()
		return c.busy("server draining")
	}
	if c.recording() != nil {
		sp.End()
		return c.busy("connection already recording")
	}
	var rec *core.Recorder
	if req.Live {
		rec, err = c.s.b.CreateLiveBag(req.Name, time.Duration(req.WindowNanos))
	} else {
		rec, err = c.s.b.CreateBag(req.Name)
	}
	if err != nil {
		sp.EndErr(err)
		return c.writeErr(err)
	}
	c.mu.Lock()
	c.rec = &recording{rec: rec, conns: map[uint16]uint32{}, window: DefaultRecordWindow}
	c.mu.Unlock()
	sp.End()
	return c.writeFrame(wire.OpOK, wire.EncodeCredit(DefaultRecordWindow))
}

// handleRecConn registers one upload connection, mapping the client's
// chosen ID to the recorder's.
func (c *conn) handleRecConn(payload []byte) error {
	rc, err := wire.DecodeRecConn(payload)
	if err != nil {
		return c.writeErr(err)
	}
	r := c.recording()
	if r == nil {
		return c.writeErr(errors.New("RECCONN outside a recording"))
	}
	if _, dup := r.conns[rc.Conn]; dup {
		return c.writeErr(fmt.Errorf("connection %d already declared", rc.Conn))
	}
	id, err := r.rec.AddConnection(rc.Topic, rc.Type)
	if err != nil {
		return c.writeErr(err)
	}
	r.conns[rc.Conn] = id
	return nil
}

// handleRecMsg appends one uploaded message and re-grants credit every
// half window, keeping the client's pipeline full without unbounded
// server-side buffering (the append happened before the grant).
func (c *conn) handleRecMsg(payload []byte) error {
	m, err := wire.DecodeMsg(payload)
	if err != nil {
		return c.writeErr(err)
	}
	r := c.recording()
	if r == nil {
		return c.writeErr(errors.New("RECMSG outside a recording"))
	}
	id, ok := r.conns[m.Conn]
	if !ok {
		return c.writeErr(fmt.Errorf("undeclared connection %d", m.Conn))
	}
	if err := r.rec.WriteMessage(id, m.Time, m.Data); err != nil {
		return c.writeErr(err)
	}
	r.count++
	r.bytes += uint64(len(m.Data))
	r.since++
	if r.since >= r.window/2 {
		r.since = 0
		return c.writeFrame(wire.OpGrant, wire.EncodeGrant(r.window/2))
	}
	return nil
}

// handleRecDone seals the recording and answers with the upload summary.
func (c *conn) handleRecDone() error {
	c.mu.Lock()
	r := c.rec
	c.rec = nil
	c.mu.Unlock()
	if r == nil {
		return c.writeErr(errors.New("RECDONE outside a recording"))
	}
	if err := r.rec.Seal(); err != nil {
		return c.writeErr(err)
	}
	return c.writeFrame(wire.OpEnd, wire.EncodeEnd(wire.End{Count: r.count, Bytes: r.bytes}))
}

func (c *conn) handleStats() error {
	data, err := json.Marshal(c.s.Stats())
	if err != nil {
		return c.writeErr(err)
	}
	return c.writeFrame(wire.OpOK, data)
}

// handleQuery admits (or BUSY-rejects) a query and starts its streaming
// goroutine; the read loop goes back to consuming CREDIT/CANCEL frames.
func (c *conn) handleQuery(payload []byte) error {
	recv := time.Now()
	req, err := wire.DecodeQuery(payload)
	if err != nil {
		return c.writeErr(err)
	}
	if c.s.draining.Load() {
		return c.busy("server draining")
	}
	c.mu.Lock()
	if c.cur != nil && !c.cur.released {
		c.mu.Unlock()
		return c.busy("connection already streaming a query")
	}
	select {
	case c.s.sem <- struct{}{}:
	default:
		c.mu.Unlock()
		return c.busy("server query limit reached")
	}
	qctx, qcancel := context.WithCancel(c.ctx)
	// Per-query attribution: the ActiveQuery rides the context into
	// core. Two allocations (the struct
	// and the context value) per query, zero per message.
	aq := &obs.ActiveQuery{ID: obs.QueryID{Trace: req.TraceID, Parent: req.ParentSpan}}
	qctx = obs.ContextWithQuery(qctx, aq)
	q := &query{ctx: qctx, cancel: qcancel, follow: req.Follow, notify: make(chan struct{}, 1), aq: aq}
	if req.Window == 0 {
		q.unlimited = true
	} else {
		q.avail.Store(int64(req.Window))
	}
	c.cur = q
	c.mu.Unlock()
	c.s.queriesG.Add(1)
	go c.runQuery(q, req, recv)
	return nil
}

func (c *conn) busy(reason string) error {
	c.s.busyC.Inc()
	return c.writeFrame(wire.OpBusy, []byte(reason))
}

// addCredit grants the in-flight query n more MSG frames.
func (c *conn) addCredit(n uint32) {
	c.mu.Lock()
	q := c.cur
	c.mu.Unlock()
	if q == nil || q.unlimited {
		return
	}
	q.avail.Add(int64(n))
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

func (c *conn) cancelQuery() {
	c.mu.Lock()
	q := c.cur
	c.mu.Unlock()
	if q != nil {
		q.cancel()
	}
}

// waitCredit consumes one send credit, blocking until the client grants
// more or the query dies. Before it parks it flushes the connection's
// pending batch: the grant it waits for is the client's answer to
// frames that may still be sitting there. Time actually spent parked
// is charged to the query's credit-stall attribution; the common
// non-blocking path stays clock-free.
func (q *query) waitCredit(flush func() error) error {
	if q.unlimited {
		return nil
	}
	if q.avail.Add(-1) >= 0 {
		return nil
	}
	q.avail.Add(1) // undo; we did not get a credit
	if err := flush(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { q.aq.AddCreditStall(time.Since(start)) }()
	for {
		select {
		case <-q.ctx.Done():
			return q.ctx.Err()
		case <-q.notify:
		}
		if q.avail.Add(-1) >= 0 {
			return nil
		}
		q.avail.Add(1)
	}
}

// runQuery streams one QUERY: connection table, MSG frames under the
// credit window, then END — or ERR, with a canceled query (client gone,
// CANCEL frame, drain deadline) counted under server.query.canceled.
// recv is when the request frame was decoded; the gap to the first
// streamed byte is the query's queue wait. The terminal frame is the
// release (endQuery): once the client has it, nothing of this query is
// in a follow-up request's way and Stats counts it served. Every
// completion — ok, error, canceled — then lands one record in the
// server's query log.
func (c *conn) runQuery(q *query, req wire.QueryReq, recv time.Time) {
	s := c.s
	sp := s.queryOp.StartQuery(req.TraceID)
	var count, bytes uint64
	var qerr error
	defer func() {
		c.release(q) // a stream that died on a write never reached endQuery
		if s.qlog != nil {
			q.aq.Messages.Store(int64(count))
			q.aq.Bytes.Store(int64(bytes))
			rec := obs.QueryRecord{
				Time:       time.Now(),
				Bag:        req.Name,
				Topics:     req.Topics,
				Remote:     c.nc.RemoteAddr().String(),
				Status:     "ok",
				DurationNs: time.Since(recv).Nanoseconds(),
			}
			if req.Order == wire.OrderTime {
				rec.Order = "time"
			}
			if qerr != nil {
				rec.Status = "error"
				rec.Error = qerr.Error()
				if q.ctx.Err() != nil {
					rec.Status = "canceled"
				}
			}
			rec.Fill(q.aq)
			s.qlog.Record(rec)
		}
		q.cancel() // after the record: "canceled" there means before this
		// The connection may already be streaming its next query, whose
		// own return then decides about a drain's close.
		c.mu.Lock()
		closing := false
		if c.cur == q {
			c.cur = nil
			closing = c.closeWhenDone
		}
		c.mu.Unlock()
		if closing {
			c.close()
		}
	}()
	fail := func(err error) {
		qerr = err
		msg := err.Error()
		if q.ctx.Err() != nil {
			s.canceledC.Inc()
			msg = "query canceled"
		}
		// Best effort: a canceled query's peer has usually vanished.
		c.endQuery(q, wire.OpErr, []byte(msg))
		sp.EndErr(err)
	}
	bag, err := s.pl.AcquireContextSpan(q.ctx, req.Name, sp)
	if err != nil {
		fail(err)
		return
	}
	conns, err := bag.Connections()
	if err != nil {
		fail(err)
		return
	}
	typeOf := make(map[string]string, len(conns))
	for _, cn := range conns {
		typeOf[cn.Topic] = cn.Type
	}
	topics := req.Topics
	if len(topics) == 0 {
		topics = bag.Topics()
	}
	metas := make([]wire.ConnMeta, 0, len(topics))
	idx := make(map[string]uint16, len(topics))
	for _, t := range topics {
		ty, ok := typeOf[t]
		if !ok {
			if req.Follow {
				// A followed recording may introduce this topic later; it
				// joins the table — with a QUERYHDR resend — when its first
				// message arrives.
				continue
			}
			fail(fmt.Errorf("unknown topic %q", t))
			return
		}
		idx[t] = uint16(len(metas))
		metas = append(metas, wire.ConnMeta{Topic: t, Type: ty})
	}
	if err := c.writeFrame(wire.OpQueryHdr, wire.EncodeQueryHdr(metas)); err != nil {
		qerr = err
		sp.EndErr(err)
		return
	}
	// First byte streamed: everything before this — admission, pool
	// acquire, metadata assembly — is the query's queue wait.
	q.aq.QueueWaitNs.Store(time.Since(recv).Nanoseconds())
	flush := c.flush
	spec := core.QuerySpec{Topics: req.Topics, Start: req.Start, End: req.End, Follow: req.Follow, Idle: flush}
	if req.Order == wire.OrderTime {
		spec.Order = core.OrderTime
	}
	// The wire index of the connection the previous message came from: a
	// stream changes connection once per topic (per message only in time
	// order), so the topic-name lookup is paid on the change.
	var lastConn *bagio.Connection
	var lastIdx uint16
	err = bag.QuerySpanContext(q.ctx, sp, spec, func(m core.MessageRef) error {
		if err := q.waitCredit(flush); err != nil {
			return err
		}
		if m.Conn != lastConn {
			i, ok := idx[m.Conn.Topic]
			if !ok {
				// First message of a topic the recording introduced after the
				// stream started: grow the connection table and resend it, so
				// the client learns the new index before any MSG uses it.
				i = uint16(len(metas))
				idx[m.Conn.Topic] = i
				metas = append(metas, wire.ConnMeta{Topic: m.Conn.Topic, Type: m.Conn.Type})
				if err := c.writeFrame(wire.OpQueryHdr, wire.EncodeQueryHdr(metas)); err != nil {
					return err
				}
			}
			lastConn, lastIdx = m.Conn, i
		}
		if err := c.writeMsg(wire.Msg{Conn: lastIdx, Time: m.Time, Data: m.Data}); err != nil {
			return err
		}
		count++
		bytes += uint64(len(m.Data))
		return nil
	})
	if err != nil {
		fail(err)
		return
	}
	s.served.Add(1)
	if err := c.endQuery(q, wire.OpEnd, wire.EncodeEnd(wire.End{Count: count, Bytes: bytes})); err != nil {
		qerr = err
		sp.EndErr(err)
		return
	}
	sp.EndBytes(int64(bytes))
}
