package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server/wire"
)

// Tests of the write batcher on the QUERY stream path (see conn): the
// four flush rules, and the release that rides the terminal frame.

// msgFrameOverhead is what a MSG frame adds to its payload: the frame
// header plus connection index, time stamp and payload length.
const msgFrameOverhead = wire.HeaderSize + 2 + 8 + 4

// within runs fn on its own goroutine and fails the test if it has not
// returned after d: a stream that parks without flushing deadlocks, and
// must fail here, in seconds, and not at go test's ten-minute timeout.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s: no result after %v (a stream parked with frames unflushed?)", what, d)
	}
}

// recordBag records a sealed bag of two topics whose messages interleave
// in time: countA messages of sizeA bytes on /a, countB of 345 on /b.
func recordBag(t *testing.T, b *core.BORA, name string, sizeA, countA, countB int) {
	t.Helper()
	rec, err := b.CreateBag(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := rec.AddConnection("/a", "test/A")
	if err != nil {
		t.Fatal(err)
	}
	bb, err := rec.AddConnection("/b", "test/B")
	if err != nil {
		t.Fatal(err)
	}
	payload := func(size, i int) []byte {
		p := bytes.Repeat([]byte{byte(i)}, size)
		copy(p, fmt.Sprintf("%d", i))
		return p
	}
	// /b ticks every 1 ms; /a is spread evenly over the same span.
	every := countB / countA
	for i := 0; i < countB; i++ {
		ts := bagio.TimeFromNanos(timeBase + int64(i)*1e6)
		if i%every == 0 && i/every < countA {
			if err := rec.WriteMessage(a, ts, payload(sizeA, i/every)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rec.WriteMessage(bb, ts, payload(345, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
}

func localQuery(t *testing.T, b *core.BORA, name string, spec core.QuerySpec) []rec {
	t.Helper()
	bag, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []rec
	if err := bag.Query(spec, func(m core.MessageRef) error {
		out = append(out, rec{Topic: m.Conn.Topic, Time: m.Time, Data: m.Copy()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchedStreamMatchesLocal sweeps credit window × payload size ×
// order: whatever the batcher's flush points fall on — a window smaller
// than a batch, a frame that fills the batch to the byte, a frame larger
// than the batch — the remote result is byte-identical to the local
// query, and no case deadlocks (flush rule 2: flush before parking on
// credit).
func TestBatchedStreamMatchesLocal(t *testing.T) {
	b, err := core.New(t.TempDir(), core.Options{TimeWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	fill := flushBytes - msgFrameOverhead // one such MSG frame is exactly one batch
	bags := []struct {
		size, countA, countB int
		name                 string
		want                 [2][]rec // local result in topic order, in time order
	}{
		{size: 0, countA: 600, countB: 600},
		{size: 345, countA: 600, countB: 600},
		{size: fill - 1, countA: 6, countB: 600},
		{size: fill, countA: 6, countB: 600},
		{size: fill + 1, countA: 6, countB: 600},
		{size: 1 << 20, countA: 2, countB: 600},
	}
	for i := range bags {
		bg := &bags[i]
		bg.name = fmt.Sprintf("p%d", bg.size)
		recordBag(t, b, bg.name, bg.size, bg.countA, bg.countB)
		bg.want = [2][]rec{
			localQuery(t, b, bg.name, core.QuerySpec{}),
			localQuery(t, b, bg.name, core.QuerySpec{Order: core.OrderTime}),
		}
		if n := len(bg.want[0]); n != bg.countA+bg.countB || n <= client.DefaultWindow {
			t.Fatalf("%s: fixture holds %d messages; want %d, and more than the default window", bg.name, n, bg.countA+bg.countB)
		}
	}
	_, addr := startServer(t, b, Options{})
	for _, window := range []int{1, 2, 3, 64, 0, -1} { // 0: client.DefaultWindow; -1: no flow control
		cl, err := client.Dial(addr, client.Options{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for _, bg := range bags {
			for order, chrono := range []bool{false, true} {
				var got []rec
				within(t, 30*time.Second, fmt.Sprintf("window %d, payload %d, chrono %v", window, bg.size, chrono), func() error {
					st, err := cl.Query(bg.name, client.QuerySpec{Chrono: chrono})
					if err != nil {
						return err
					}
					for st.Next() {
						m := st.Message()
						got = append(got, rec{Topic: m.Topic, Time: m.Time, Data: m.Copy()})
					}
					return st.Err()
				})
				if !reflect.DeepEqual(got, bg.want[order]) {
					t.Errorf("window %d, payload %d, chrono %v: remote stream (%d msgs) differs from local query (%d msgs)",
						window, bg.size, chrono, len(got), len(bg.want[order]))
				}
			}
		}
	}
}

// TestEndIsTheRelease: by the time a client has a stream's END, nothing
// of that query is left for its next request to trip over — not the
// connection's stream slot, not the admission token, not the counters.
// A closed-loop client used to be BUSY-ed by its own finished query and
// sleep a backoff.
func TestEndIsTheRelease(t *testing.T) {
	b := buildBackend(t, obs.NewRegistry(), 2, 5) // Stats counts on the registry
	srv, addr := startServer(t, b, Options{MaxQueries: 1})
	dial := func() *client.Client {
		cl, err := client.Dial(addr, client.Options{Attempts: 1}) // no BUSY retry
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	drain := func(cl *client.Client, what string) {
		t.Helper()
		st, err := cl.Query("robot1", client.QuerySpec{})
		if err != nil {
			t.Fatalf("%s: %v (busy: %v)", what, err, errors.Is(err, client.ErrBusy))
		}
		for st.Next() {
		}
		if err := st.Err(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	one, other := dial(), dial()
	for n := int64(1); n <= 500; n++ {
		cl, what := one, "same connection"
		if n > 250 && n%2 == 0 {
			// The global limit is one query: another connection's request,
			// sent right after this one's END, needs the token back.
			cl, what = other, "other connection"
		}
		drain(cl, fmt.Sprintf("query %d (%s)", n, what))
		st := srv.Stats()
		if st.QueriesServed != n || st.QueriesActive != 0 || st.QueriesBusy != 0 {
			t.Fatalf("after END of query %d: served %d, active %d, busy %d; want %d, 0, 0",
				n, st.QueriesServed, st.QueriesActive, st.QueriesBusy, n)
		}
	}
}

// TestFollowIdleFlush covers flush rule 4 over the wire: a follower that
// has caught up holds nothing back. The recorded prefix is far smaller
// than a batch, so only the idle flush can deliver it; then each single
// write reaches Stream.Next with no later write to push it out, and a
// topic introduced mid-stream is announced (QUERYHDR resend) ahead of
// the first MSG that uses its index — the client rejects an unknown one.
func TestFollowIdleFlush(t *testing.T) {
	b, err := core.New(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, b, Options{})
	rec, err := b.CreateLiveBag("live", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	imu, err := rec.AddConnection("/imu", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	write := func(conn uint32) string {
		t.Helper()
		data := fmt.Sprintf("m%06d", seq)
		if err := rec.WriteMessage(conn, bagio.TimeFromNanos(timeBase+int64(seq)*1e7), []byte(data)); err != nil {
			t.Fatal(err)
		}
		seq++
		return data
	}
	var prefix []string
	for i := 0; i < 10; i++ {
		prefix = append(prefix, write(imu))
	}

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Query("live", client.QuerySpec{Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	next := func(topic, data string) {
		t.Helper()
		within(t, 10*time.Second, "follower waiting for "+data, func() error {
			if !st.Next() {
				return fmt.Errorf("stream ended: %v", st.Err())
			}
			if m := st.Message(); m.Topic != topic || string(m.Data) != data {
				return fmt.Errorf("got %s %q, want %s %q", m.Topic, m.Data, topic, data)
			}
			return nil
		})
	}
	for _, data := range prefix {
		next("/imu", data)
	}
	// Caught up and parked. One write at a time, each awaited before the
	// next is made.
	for i := 0; i < 5; i++ {
		next("/imu", write(imu))
	}
	late, err := rec.AddConnection("/late", "tf/tfMessage")
	if err != nil {
		t.Fatal(err)
	}
	next("/late", write(late))
	next("/imu", write(imu))
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	within(t, 10*time.Second, "end of the sealed recording", func() error {
		if st.Next() {
			return fmt.Errorf("message %q after the last write", st.Message().Data)
		}
		return st.Err()
	})
}

// bigBackend records "big": 70,000 345-byte messages on one topic,
// ≈ 24 MB — more than loopback TCP buffers, so an unacknowledged stream
// of it is still running whenever the test's next frame arrives.
func bigBackend(t *testing.T) *core.BORA {
	t.Helper()
	b, err := core.New(t.TempDir(), core.Options{TimeWindow: time.Second, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := b.CreateBag("big")
	if err != nil {
		t.Fatal(err)
	}
	id, err := rec.AddConnection("/imu", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 345)
	for i := 0; i < 70000; i++ {
		copy(payload, fmt.Sprintf("m%06d", i))
		if err := rec.WriteMessage(id, bagio.TimeFromNanos(timeBase+int64(i)*1e6), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	return b
}

// startBigStream opens a raw connection, asks for all of "big" with no
// flow control and reads up to the first MSG: the server is mid-stream,
// its batch buffer filling and flushing, when the caller acts next.
func startBigStream(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(20 * time.Second))
	if err := wire.WriteFrame(nc, wire.OpQuery, wire.EncodeQuery(wire.QueryReq{Name: "big"})); err != nil {
		t.Fatal(err)
	}
	expectOps(t, nc, wire.OpQueryHdr, wire.OpMsg)
	return nc
}

// lastRecord waits for the query log's n-th record: it is the last thing
// a query's goroutine does, so having it means the goroutine is done.
func lastRecord(t *testing.T, qlog *obs.QueryLog, n int) obs.QueryRecord {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool { total, _ := qlog.Totals(); return total >= n })
	recs := qlog.Records()
	return recs[len(recs)-1]
}

// TestCancelMidBatch: a CANCEL that lands while the stream is running —
// MSG frames appended and not yet flushed — ends it with ERR "query
// canceled" behind every MSG the server counted as sent, in order and
// intact; the ERR is the release, and the connection is usable at once.
func TestCancelMidBatch(t *testing.T) {
	b := bigBackend(t)
	qlog := obs.NewQueryLog(16, 0, nil)
	srv, addr := startServer(t, b, Options{QueryLog: qlog, MaxQueries: 1})
	nc := startBigStream(t, addr)
	if err := wire.WriteFrame(nc, wire.OpCancel, nil); err != nil {
		t.Fatal(err)
	}
	msgs := 1
	for {
		f, err := wire.ReadFrame(nc, 0)
		if err != nil {
			t.Fatalf("after %d messages: %v", msgs, err)
		}
		if f.Op == wire.OpErr {
			if string(f.Payload) != "query canceled" {
				t.Fatalf("ERR %q, want \"query canceled\"", f.Payload)
			}
			break
		}
		m, err := wire.DecodeMsg(f.Payload)
		if f.Op != wire.OpMsg || err != nil {
			t.Fatalf("frame %d: opcode 0x%02x, %v; want MSG", msgs, f.Op, err)
		}
		if want := fmt.Sprintf("m%06d", msgs); !bytes.HasPrefix(m.Data, []byte(want)) || len(m.Data) != 345 {
			t.Fatalf("message %d is %q (%d bytes), want %s…", msgs, m.Data[:7], len(m.Data), want)
		}
		msgs++
	}
	if msgs == 70000 {
		t.Fatal("the stream ran to its end; the cancel tested nothing")
	}
	if st := srv.Stats(); st.QueriesActive != 0 || st.QueriesCanceled != 1 {
		t.Errorf("on ERR: %d queries active, %d canceled; want 0, 1", st.QueriesActive, st.QueriesCanceled)
	}
	// Nothing trails the ERR, and with a global limit of one query the
	// next request needs the canceled one's token.
	if err := wire.WriteFrame(nc, wire.OpQuery, wire.EncodeQuery(wire.QueryReq{Name: "big", Window: 1})); err != nil {
		t.Fatal(err)
	}
	expectOps(t, nc, wire.OpQueryHdr)
	if r := lastRecord(t, qlog, 1); r.Status != "canceled" || r.Messages != int64(msgs) {
		t.Errorf("query log: status %q, %d messages; the client got %d before the ERR", r.Status, r.Messages, msgs)
	}
}

// TestDisconnectMidBatch: the client vanishes while the stream is
// running. The failed flush ends the query; nothing of it stays behind.
func TestDisconnectMidBatch(t *testing.T) {
	b := bigBackend(t)
	qlog := obs.NewQueryLog(16, 0, nil)
	srv, addr := startServer(t, b, Options{QueryLog: qlog})
	nc := startBigStream(t, addr)
	nc.Close()
	// Whether the failed write or the read loop's cancel ends the query
	// first decides between "error" and "canceled"; either way it ended.
	if r := lastRecord(t, qlog, 1); r.Status == "ok" {
		t.Errorf("query log: status ok with %d messages, want an aborted stream", r.Messages)
	}
	waitFor(t, 10*time.Second, func() bool { return srv.Stats().ConnsActive == 0 })
	if st := srv.Stats(); st.QueriesActive != 0 || len(srv.sem) != 0 {
		t.Errorf("after disconnect: %d queries active, %d admission tokens held", st.QueriesActive, len(srv.sem))
	}
}
