package server

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server/wire"
)

// TestRecordUploadAndQuery drives the RECORD verb end to end: upload a
// classic bag over the wire, seal it, query it back.
func TestRecordUploadAndQuery(t *testing.T) {
	b := buildBackend(t, obs.NewRegistry(), 1, 1)
	_, addr := startServer(t, b, Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rs, err := cl.Record("uploaded", client.RecordSpec{})
	if err != nil {
		t.Fatal(err)
	}
	imu, err := rs.AddConnection("/imu", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	tf, err := rs.AddConnection("/tf", "tf/tfMessage")
	if err != nil {
		t.Fatal(err)
	}
	// More messages than the credit window, so grants must flow.
	const total = 1200
	for i := 0; i < total; i++ {
		ts := bagio.TimeFromNanos(timeBase + int64(i)*1e7)
		conn := imu
		if i%4 == 0 {
			conn = tf
		}
		if err := rs.WriteMessage(conn, ts, []byte(fmt.Sprintf("m%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Seal(); err != nil {
		t.Fatal(err)
	}
	if count, _ := rs.Sent(); count != total {
		t.Errorf("Sent = %d, want %d", count, total)
	}
	// Double-seal errors; the connection stays usable for new requests.
	if err := rs.Seal(); err == nil {
		t.Error("double Seal accepted")
	}

	st, err := cl.Query("uploaded", client.QuerySpec{Order: core.OrderTime})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for st.Next() {
		m := st.Message()
		want := fmt.Sprintf("m%06d", n)
		if string(m.Data) != want {
			t.Fatalf("message %d: got %q, want %q", n, m.Data, want)
		}
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Errorf("queried %d messages, want %d", n, total)
	}
}

// TestLiveRecordWithConcurrentFollow is the network acceptance path:
// one connection uploads into a live bag while another follows it; the
// follower sees every message, including topics introduced mid-stream,
// and the stream ends when the upload seals.
func TestLiveRecordWithConcurrentFollow(t *testing.T) {
	b := buildBackend(t, obs.NewRegistry(), 1, 1)
	_, addr := startServer(t, b, Options{})

	up, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	down, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer down.Close()

	rs, err := up.Record("livebag", client.RecordSpec{Live: true, WindowNanos: uint64(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	imu, err := rs.AddConnection("/imu", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	const prefix, total = 100, 300
	write := func(conn uint32, i int) {
		t.Helper()
		ts := bagio.TimeFromNanos(timeBase + int64(i)*1e7)
		if err := rs.WriteMessage(conn, ts, []byte(fmt.Sprintf("m%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < prefix; i++ {
		write(imu, i)
	}

	st, err := down.Query("livebag", client.QuerySpec{Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	type got struct {
		topic string
		data  string
	}
	results := make(chan []got, 1)
	go func() {
		var out []got
		for st.Next() {
			m := st.Message()
			out = append(out, got{m.Topic, string(m.Data)})
		}
		results <- out
	}()

	// A topic the follower's initial connection table cannot contain.
	late, err := rs.AddConnection("/late", "tf/tfMessage")
	if err != nil {
		t.Fatal(err)
	}
	for i := prefix; i < total; i++ {
		conn := imu
		if i%10 == 0 {
			conn = late
		}
		write(conn, i)
	}
	if err := rs.Seal(); err != nil {
		t.Fatal(err)
	}

	out := <-results
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != total {
		t.Fatalf("follow delivered %d messages, want %d", len(out), total)
	}
	seen := map[string]bool{}
	lateCount := 0
	for _, g := range out {
		if seen[g.data] {
			t.Fatalf("duplicate message %q", g.data)
		}
		seen[g.data] = true
		if g.topic == "/late" {
			lateCount++
		}
	}
	if lateCount != (total-prefix)/10 {
		t.Errorf("late-topic messages = %d, want %d", lateCount, (total-prefix)/10)
	}

	// Post-hoc query of the sealed bag agrees on the count.
	bag, err := b.Open("livebag")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := bag.Query(core.QuerySpec{}, func(core.MessageRef) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Errorf("post-hoc count = %d, want %d", n, total)
	}
}

// TestRecordSealedOnDisconnect pins the crash-consistency contract at
// the network layer: a vanished uploader's acknowledged messages are
// sealed durable by the server.
func TestRecordSealedOnDisconnect(t *testing.T) {
	b := buildBackend(t, obs.NewRegistry(), 1, 1)
	_, addr := startServer(t, b, Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cl.Record("abandoned", client.RecordSpec{Live: true})
	if err != nil {
		t.Fatal(err)
	}
	imu, err := rs.AddConnection("/imu", "sensor_msgs/Imu")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := rs.WriteMessage(imu, bagio.TimeFromNanos(timeBase+int64(i)*1e7), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close() // no RECDONE: the uploader vanishes

	// The server seals on disconnect; poll until the bag opens complete.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gen, recording, err := b.ProbeBag("abandoned")
		if err == nil && !recording && gen != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bag not sealed after disconnect: gen=%d recording=%v err=%v", gen, recording, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	bag, err := b.Open("abandoned")
	if err != nil {
		t.Fatal(err)
	}
	n, err := bag.MessageCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("sealed %d messages, want 10", n)
	}
}

// TestRecordNameCannotLeaveRoot: a RECORD whose name climbs out of the
// back-end root gets an ERR frame, live or classic, and nothing is
// created beside the root.
func TestRecordNameCannotLeaveRoot(t *testing.T) {
	b := buildBackend(t, nil, 1, 1)
	_, addr := startServer(t, b, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	for _, live := range []bool{true, false} {
		if err := wire.WriteFrame(nc, wire.OpRecord, wire.EncodeRecord(wire.RecordReq{Name: "../escaped", Live: live})); err != nil {
			t.Fatal(err)
		}
		expectOps(t, nc, wire.OpErr)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(b.Root()), "escaped")); !os.IsNotExist(err) {
		t.Errorf("RECORD ../escaped created a bag beside the root (stat: %v)", err)
	}
}
