package main

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/bagio"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// countingListener counts what the server writes to and reads from the
// connections it accepts. Only the traced instance serves through it:
// an interposed net.Conn hides the TCP connection's vectored-write fast
// path from the program, and the untraced numbers must not depend on
// the probe.
type countingListener struct {
	net.Listener
	writes, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.writes.Add(1)
	c.l.written.Add(int64(n))
	return n, err
}

// remoteStream is the bulk stream over the wire: one client on one
// loopback TCP connection asks an in-process server for one 10 s
// all-topics window after another, sweeping a bag larger than the
// pool's block cache, so client, wire, server admission and credit, and
// a thrashing pool all work — none of which the local workloads touch.
type remoteStream struct {
	common
	b        *core.BORA
	p        *pool.Pool
	srv      *server.Server
	serveErr chan error
	counted  *countingListener // nil unless traced
	qlog     *obs.QueryLog
	cl       *client.Client
	dialMs   float64
	k        int

	counts    map[int]sum
	delivered sum // since mark
	ops       float64

	pool0             pool.Stats
	srv0              wire.ServerStats
	qlog0             int
	writes0, written0 int64
}

func (w *remoteStream) setup(src string, orc *oracle) (err error) {
	if w.b, err = w.openBackend(src, orc); err != nil {
		return err
	}
	// The workload is the larger-than-cache case: on D2 the pool's
	// default block cache is already too small; on the small dataset of
	// a mini instance the cache is cut to half the bag, so that the
	// cyclic scan thrashes it there too and the server's disk and fill
	// metrics measure the same regime.
	var cacheBytes int64
	if orc.total.bytes <= pool.DefaultBlockCacheBytes {
		cacheBytes = orc.total.bytes / 2
	}
	w.p = pool.New(w.b, pool.Options{BlockCacheBytes: cacheBytes})
	w.qlog = obs.NewQueryLog(4096, 0, nil)
	w.srv = server.New(w.b, server.Options{Pool: w.p, QueryLog: w.qlog})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if w.tr.sp != nil {
		w.counted = &countingListener{Listener: ln}
		ln = w.counted
	}
	w.serveErr = make(chan error, 1)
	go func() { w.serveErr <- w.srv.Serve(ln) }()

	// Dial a few times so client.dial_ms is a median, not one sample.
	var dials []float64
	for i := 0; i < 5; i++ {
		if w.cl != nil {
			w.cl.Close()
		}
		t0 := time.Now()
		if w.cl, err = client.Dial(addr, client.Options{Obs: w.tr.reg}); err != nil {
			return err
		}
		dials = append(dials, ms(time.Since(t0)))
	}
	w.dialMs = median(dials)
	w.counts = map[int]sum{}
	w.op(false)
	return nil
}

func (w *remoteStream) op(verify bool) (sum, time.Duration) {
	// Consecutive ops ask for consecutive windows, wrapping at the end
	// of the bag: a cyclic scan, the access pattern an LRU cache smaller
	// than the scan cannot help.
	n := w.sz.data.seconds / windowSeconds
	startSec := (w.k + int(w.seed%1000)) % n * windowSeconds
	w.k++
	start, end := windowAt(startSec)
	var want sum
	if c, ok := w.counts[startSec]; ok && !verify {
		want = c
	} else {
		want = w.orc.want(nil, start, end, 1, verify)
		if !verify {
			w.counts[startSec] = want
		}
	}
	col := newCollector(verify, orderTopic)
	sp := w.tr.sp

	t0 := time.Now()
	op := sp.begin("bench.op")
	s := sp.begin("client.first_msg")
	st, err := w.cl.Query(bagName, client.QuerySpec{Start: bagio.TimeFromNanos(start), End: bagio.TimeFromNanos(end)})
	more := err == nil && st.Next()
	sp.end(s, err)
	if err == nil {
		s = sp.begin("client.drain")
		for ; more; more = st.Next() {
			m := st.Message()
			col.add(m.Topic, m.Time, m.Data)
		}
		err = st.Err()
		sp.end(s, err)
	}
	sp.end(op, err)
	d := time.Since(t0)

	w.tally.op("remote_stream", err, col.check(want))
	w.delivered.n += col.n
	w.delivered.bytes += col.bytes
	w.ops++
	return col.sum, d
}

func (w *remoteStream) round(verify bool) (int64, time.Duration, []float64) {
	return runOps(w.opsIn(verify, w.sz.data.seconds/windowSeconds), func() (sum, time.Duration) { return w.op(verify) })
}

func (w *remoteStream) mark() {
	w.delivered, w.ops = sum{}, 0
	w.pool0, w.srv0 = w.p.Stats(), w.srv.Stats()
	w.qlog0, _ = w.qlog.Totals()
	if w.counted != nil {
		w.writes0, w.written0 = w.counted.writes.Load(), w.counted.written.Load()
	}
}

func (w *remoteStream) layers(out metrics) {
	if w.tr.sp != nil {
		out["client.dial_ms"] = w.dialMs
	}
	w.spanMs(out, "client.first_msg_ms", "client.first_msg", 1)
	w.spanMs(out, "client.drain_ms", "client.drain", 1)
	poolLayers(out, "pool.remote_", w.pool0, w.p.Stats(), w.ops, float64(w.delivered.bytes))
	out["server.queries_busy"] = float64(w.srv.Stats().QueriesBusy - w.srv0.QueriesBusy)

	// The server's own attribution of each query, from its query log.
	total, _ := w.qlog.Totals()
	recs := w.qlog.Records()
	if fresh := total - w.qlog0; fresh > 0 && fresh <= len(recs) {
		var wait []float64
		var disk, stall float64
		for _, r := range recs[len(recs)-fresh:] {
			wait = append(wait, float64(r.QueueWaitNs)/1e3)
			disk += float64(r.DiskNs) / 1e6
			stall += float64(r.CreditStallNs) / 1e6
		}
		out["server.queue_wait_us"] = median(wait)
		out["server.disk_ms_per_op"] = disk / float64(fresh)
		out["server.credit_stall_ms_per_op"] = stall / float64(fresh)
	}
	if w.counted != nil {
		out["wire.writes_per_msg"] = ratio(float64(w.counted.writes.Load()-w.writes0), float64(w.delivered.n))
		out["wire.bytes_per_payload_byte"] = ratio(float64(w.counted.written.Load()-w.written0), float64(w.delivered.bytes))
	}
}

func (w *remoteStream) stored() (int64, int64) { return w.storedBag(w.b) }

func (w *remoteStream) close() error {
	if w.cl != nil {
		w.cl.Close()
	}
	if w.srv == nil {
		return nil
	}
	w.srv.Close()
	if err := <-w.serveErr; err != nil && !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	return nil
}
