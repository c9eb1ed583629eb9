package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/client"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/msgs"
	"repro/internal/obs"
	"repro/internal/rosbag"
	"repro/internal/server/wire"
)

const timeBase = int64(1_000_000_000_000_000_000) // 1e18 ns

// buildBackend duplicates a synthetic bag ("robot1": `topics` IMU
// topics × `per` messages at 10 Hz) into a fresh backend.
func buildBackend(t *testing.T, reg *obs.Registry, topics, per int) *core.BORA {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bag")
	w, f, err := rosbag.Create(src, rosbag.WriterOptions{ChunkThreshold: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < topics; i++ {
		topic := fmt.Sprintf("/sensor%02d", i)
		for j := 0; j < per; j++ {
			ts := bagio.TimeFromNanos(timeBase + int64(j)*1e8)
			m := &msgs.Imu{Header: msgs.Header{Seq: uint32(j), Stamp: ts, FrameID: topic}}
			if err := w.WriteMsg(topic, ts, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := core.New(filepath.Join(dir, "backend"), core.Options{TimeWindow: time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Duplicate(src, "robot1"); err != nil {
		t.Fatal(err)
	}
	return b
}

// startServer serves b on an ephemeral loopback port.
func startServer(t *testing.T, b *core.BORA, opts Options) (*Server, string) {
	t.Helper()
	srv := New(b, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

type rec struct {
	Topic string
	Time  bagio.Time
	Data  []byte
}

// TestEndToEndMatchesLocal is the acceptance path: a windowed topic
// query through the daemon must deliver byte-identical messages, in the
// same order, as core.Bag.Query of the same selection over the same
// container, in either order and strided or not.
func TestEndToEndMatchesLocal(t *testing.T) {
	b := buildBackend(t, nil, 6, 40)
	_, addr := startServer(t, b, Options{})
	bag, err := b.Open("robot1")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(addr, client.Options{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, order := range []core.Order{core.OrderTopic, core.OrderTime} {
		for _, stride := range []int{0, 10} {
			spec := core.QuerySpec{
				Topics: []string{"/sensor01", "/sensor04"},
				Start:  bagio.TimeFromNanos(timeBase + 5e8),
				End:    bagio.TimeFromNanos(timeBase + 30e8),
				Order:  order,
				Stride: stride,
			}
			var local []rec
			if err := bag.Query(spec, func(m core.MessageRef) error {
				local = append(local, rec{Topic: m.Conn.Topic, Time: m.Time, Data: bytes.Clone(m.Data)})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(local) == 0 {
				t.Fatal("windowed local query returned nothing; fixture broken")
			}
			st, err := cl.Query("robot1", spec)
			if err != nil {
				t.Fatal(err)
			}
			var remote []rec
			for st.Next() {
				m := st.Message()
				if m.Type != "sensor_msgs/Imu" {
					t.Errorf("message type %q", m.Type)
				}
				remote = append(remote, rec{Topic: m.Topic, Time: m.Time, Data: bytes.Clone(m.Data)})
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(remote, local) {
				t.Errorf("order %d, stride %d: remote stream (%d msgs) differs from local query (%d msgs)",
					order, stride, len(remote), len(local))
			}
		}
	}
}

// TestStridedQuerySendsOnlySurvivors: a strided QUERY streams exactly
// the messages the local query of the same selection delivers — every
// tenth of each topic — and END counts those, not the window's: the
// other nine in ten never cross the wire.
func TestStridedQuerySendsOnlySurvivors(t *testing.T) {
	b := buildBackend(t, nil, 3, 200)
	_, addr := startServer(t, b, Options{})
	bag, err := b.Open("robot1")
	if err != nil {
		t.Fatal(err)
	}
	sel := core.QuerySpec{Start: bagio.TimeFromNanos(timeBase + 5e8), End: bagio.TimeFromNanos(timeBase + 150e8)}
	count := func(s core.QuerySpec) (n uint64) {
		if err := bag.Query(s, func(core.MessageRef) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	window := count(sel)
	sel.Stride = 10
	local := count(sel)
	if local == 0 || local*9 > window {
		t.Fatalf("fixture: stride 10 keeps %d of %d in-window messages", local, window)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.OpQuery, wire.EncodeQuery(wire.QueryReq{Name: "robot1", Query: sel})); err != nil {
		t.Fatal(err)
	}
	var frames uint64
	for {
		f, err := wire.ReadFrame(nc, wire.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Op {
		case wire.OpQueryHdr:
		case wire.OpMsg:
			frames++
		case wire.OpEnd:
			end, err := wire.DecodeEnd(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if frames != local || end.Count != local {
				t.Errorf("strided window: %d MSG frames, END counts %d; the local query delivers %d of %d", frames, end.Count, local, window)
			}
			return
		default:
			t.Fatalf("unexpected frame 0x%02x: %s", f.Op, f.Payload)
		}
	}
}

// TestInfoOpenPingStats covers the non-streaming requests.
func TestInfoOpenPingStats(t *testing.T) {
	b := buildBackend(t, nil, 3, 5)
	_, addr := startServer(t, b, Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Ping(); err != nil {
		t.Errorf("ping: %v", err)
	}
	if err := cl.Open("robot1"); err != nil {
		t.Errorf("open: %v", err)
	}
	if err := cl.Open("no-such-bag"); err == nil {
		t.Error("open of a missing bag succeeded")
	}
	bi, err := cl.Info("robot1")
	if err != nil {
		t.Fatal(err)
	}
	if len(bi.Topics) != 3 {
		t.Fatalf("info topics = %d, want 3", len(bi.Topics))
	}
	for _, ti := range bi.Topics {
		if ti.Count != 5 || ti.Type != "sensor_msgs/Imu" {
			t.Errorf("topic %+v, want count 5 type sensor_msgs/Imu", ti)
		}
	}

	st, err := cl.Query("robot1", client.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	for st.Next() {
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueriesServed != 1 {
		t.Errorf("queries served = %d, want 1", stats.QueriesServed)
	}
	if stats.PoolMisses == 0 {
		t.Error("pool misses = 0; server did not route opens through the pool")
	}
}

// TestStatsWithoutRegistry: a backend built with no obs registry still
// gets live connection and query counts from Stats.
func TestStatsWithoutRegistry(t *testing.T) {
	b := buildBackend(t, nil, 2, 5)
	srv, addr := startServer(t, b, Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Query("robot1", client.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	for st.Next() {
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if s := srv.Stats(); s.ConnsAccepted != 1 || s.ConnsActive != 1 || s.QueriesServed != 1 || s.QueriesActive != 0 {
		t.Errorf("stats: accepted %d, active conns %d, served %d, active queries %d; want 1, 1, 1, 0",
			s.ConnsAccepted, s.ConnsActive, s.QueriesServed, s.QueriesActive)
	}
}

// TestServerServesThroughItsPool: a server given no pool builds one, so
// with nothing wired by the caller the second QUERY of a bag is a pool
// handle hit.
func TestServerServesThroughItsPool(t *testing.T) {
	b := buildBackend(t, nil, 1, 3)
	srv, addr := startServer(t, b, Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	query := func() {
		t.Helper()
		st, err := cl.Query("robot1", client.QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		for st.Next() {
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
	}
	query()
	query()
	if st := srv.Stats(); st.PoolMisses != 1 || st.PoolHits != 1 || st.PoolResident != 1 {
		t.Fatalf("after two queries: %d pool misses, %d hits, %d resident; want 1, 1, 1",
			st.PoolMisses, st.PoolHits, st.PoolResident)
	}
}

// TestBusyAtAdmissionLimit: with a global limit of 1, a second query is
// rejected with the typed BUSY while the first stream is parked on flow
// control, and succeeds once the first drains.
func TestBusyAtAdmissionLimit(t *testing.T) {
	b := buildBackend(t, nil, 2, 50)
	_, addr := startServer(t, b, Options{MaxQueries: 1})

	slow, err := client.Dial(addr, client.Options{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	st, err := slow.Query("robot1", client.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	// The server has sent one frame and is now blocked awaiting credit:
	// the admission slot stays held without consuming anything here.

	fast, err := client.Dial(addr, client.Options{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if _, err := fast.Query("robot1", client.QuerySpec{}); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("second query err = %v, want ErrBusy", err)
	}

	for st.Next() {
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	// Slot free again: the same request now succeeds (retry loop).
	st2, err := fast.Query("robot1", client.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for st2.Next() {
		n++
	}
	if err := st2.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("retried query delivered %d messages, want 100", n)
	}
}

// TestPerConnBusy drives raw frames: a second QUERY on a connection
// that is already streaming gets BUSY without killing the stream. The
// first query's window of one frame parks it after its first MSG, so it
// is certainly still streaming when the second QUERY is read.
func TestPerConnBusy(t *testing.T) {
	b := buildBackend(t, nil, 2, 30)
	_, addr := startServer(t, b, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteFrame(nc, wire.OpQuery, wire.EncodeQuery(wire.QueryReq{Name: "robot1", Window: 1})); err != nil {
		t.Fatal(err)
	}
	expectOps(t, nc, wire.OpQueryHdr, wire.OpMsg)
	if err := wire.WriteFrame(nc, wire.OpQuery, wire.EncodeQuery(wire.QueryReq{Name: "robot1"})); err != nil {
		t.Fatal(err)
	}
	expectOps(t, nc, wire.OpBusy)
	// The parked stream is alive: credit for the rest runs it to its END.
	if err := wire.WriteFrame(nc, wire.OpCredit, wire.EncodeCredit(1000)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 60; i++ {
		expectOps(t, nc, wire.OpMsg)
	}
	expectOps(t, nc, wire.OpEnd)
}

// expectOps reads one frame per opcode given and fails the test unless
// they arrive in that order.
func expectOps(t *testing.T, nc net.Conn, ops ...byte) {
	t.Helper()
	for _, op := range ops {
		f, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("waiting for opcode 0x%02x: %v", op, err)
		}
		if f.Op != op {
			t.Fatalf("got opcode 0x%02x %q, want 0x%02x", f.Op, f.Payload, op)
		}
	}
}

// TestDrainFinishesInFlightStream: Shutdown must let a parked in-flight
// stream run to completion, refuse new work meanwhile, and return once
// the connection is gone.
func TestDrainFinishesInFlightStream(t *testing.T) {
	b := buildBackend(t, nil, 2, 50)
	srv, addr := startServer(t, b, Options{})

	cl, err := client.Dial(addr, client.Options{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Query("robot1", client.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first message: %v", st.Err())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(ctx) }()

	// Draining: new connections must be refused (listener closed) and
	// new queries BUSY-rejected; give Shutdown a moment to take effect.
	waitFor(t, time.Second, func() bool { return srv.draining.Load() })
	dialCtx, dialCancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer dialCancel()
	if _, err := client.DialContext(dialCtx, addr, client.Options{Attempts: 1}); err == nil {
		t.Error("dial succeeded during drain")
	}

	n := uint64(1)
	for st.Next() {
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatalf("in-flight stream died during drain: %v", err)
	}
	if count, _ := st.Received(); count != 100 || n != 100 {
		t.Errorf("drained stream delivered %d messages, want 100", count)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestDrainDeadlineForcesCancel: a stream whose client never grants
// credit cannot stall Shutdown past its deadline; the parked query is
// canceled and counted.
func TestDrainDeadlineForcesCancel(t *testing.T) {
	reg := obs.NewRegistry()
	b := buildBackend(t, reg, 2, 50)
	srv, addr := startServer(t, b, Options{})
	cl, err := client.Dial(addr, client.Options{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query("robot1", client.QuerySpec{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil with a stalled stream")
	}
	waitFor(t, 2*time.Second, func() bool {
		return reg.Snapshot().Counters["server.query.canceled"] == 1
	})
}

// TestDisconnectCancelsQuery: an abrupt client disconnect mid-stream
// must cancel the server-side query, observable via the
// server.query.canceled counter.
func TestDisconnectCancelsQuery(t *testing.T) {
	reg := obs.NewRegistry()
	b := buildBackend(t, reg, 2, 100)
	srv, addr := startServer(t, b, Options{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Window 1: the server parks in waitCredit after the first MSG, so
	// the query is guaranteed to still be in flight when we vanish.
	q := wire.EncodeQuery(wire.QueryReq{Name: "robot1", Window: 1})
	if err := wire.WriteFrame(nc, wire.OpQuery, q); err != nil {
		t.Fatal(err)
	}
	for seen := 0; seen < 2; { // QUERYHDR then the first MSG
		f, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Op == wire.OpQueryHdr || f.Op == wire.OpMsg {
			seen++
		}
	}
	nc.Close() // abrupt disconnect, no CANCEL frame

	waitFor(t, 5*time.Second, func() bool {
		return reg.Snapshot().Counters["server.query.canceled"] == 1
	})
	waitFor(t, 5*time.Second, func() bool {
		return srv.Stats().QueriesActive == 0
	})
}

// waitFor polls cond up to d.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestConcurrentClients drives 10 concurrent clients through one
// daemon (runs under -race in CI).
func TestConcurrentClients(t *testing.T) {
	reg := obs.NewRegistry()
	b := buildBackend(t, reg, 4, 25)
	_, addr := startServer(t, b, Options{})
	const numClients = 10
	var wg sync.WaitGroup
	errs := make([]error, numClients)
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Options{Window: 4})
			if err != nil {
				errs[i] = err
				return
			}
			defer cl.Close()
			for round := 0; round < 3; round++ {
				topic := fmt.Sprintf("/sensor%02d", (i+round)%4)
				st, err := cl.Query("robot1", client.QuerySpec{Topics: []string{topic}})
				if err != nil {
					errs[i] = err
					return
				}
				n := 0
				for st.Next() {
					n++
				}
				if err := st.Err(); err != nil {
					errs[i] = fmt.Errorf("round %d: %w", round, err)
					return
				}
				if n != 25 {
					errs[i] = fmt.Errorf("round %d: got %d messages, want 25", round, n)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

// TestCutUnderMappedStreamIsAnError: a topic the daemon's pooled handle
// has mapped is cut while a query streams it. The fault inside the
// frame encoder becomes the query's ErrIndexBeyondData, which reaches
// the client as a whole ERR frame behind whole MSG frames — no hang, no
// crash — and the same connection then answers a Ping and serves a
// query of an intact topic in full.
func TestCutUnderMappedStreamIsAnError(t *testing.T) {
	const per = 400
	b := buildBackend(t, nil, 2, per)
	_, addr := startServer(t, b, Options{})
	cl, err := client.Dial(addr, client.Options{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		st, err := cl.Query("robot1", client.QuerySpec{Topics: []string{"/sensor00"}})
		if err != nil {
			done <- err
			return
		}
		if !st.Next() {
			done <- fmt.Errorf("no first message: %v", st.Err())
			return
		}
		data := filepath.Join(b.Root(), "robot1", "sensor00", container.DataFileName)
		if err := os.Truncate(data, 0); err != nil {
			done <- err
			return
		}
		n := 1
		for st.Next() {
			n++
		}
		if n >= per {
			done <- fmt.Errorf("the cut stream delivered all %d messages", n)
			return
		}
		if err := st.Err(); err == nil || !strings.Contains(err.Error(), container.ErrIndexBeyondData.Error()) {
			done <- fmt.Errorf("the cut stream ended with %v, want the server's ErrIndexBeyondData", err)
			return
		}
		if _, err := cl.Ping(); err != nil {
			done <- fmt.Errorf("Ping after the error: %v", err)
			return
		}
		st, err = cl.Query("robot1", client.QuerySpec{Topics: []string{"/sensor01"}})
		if err != nil {
			done <- err
			return
		}
		n = 0
		for st.Next() {
			n++
		}
		if err := st.Err(); err != nil || n != per {
			done <- fmt.Errorf("the intact topic after the error: %d messages, %v; want %d", n, err, per)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the client hung on a stream cut under the daemon's mapping")
	}
}
