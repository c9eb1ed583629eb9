package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"repro/internal/bagio"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

func init() {
	register("live-tail", runLiveTail)
}

// liveTailResult is one tail scenario's measurements: how long the
// follower took to drain the already-recorded prefix, and the
// write-to-delivery latency of every message recorded after it caught
// up.
type liveTailResult struct {
	catchupMsgs int
	catchup     time.Duration
	latencies   []time.Duration
}

// liveTailSink is the slice of the recording surface the harness needs;
// both core.Recorder and client.RecordStream satisfy it, so the
// in-process and loopback scenarios share one driver.
type liveTailSink interface {
	AddConnection(topic, msgType string) (uint32, error)
	WriteMessage(conn uint32, t bagio.Time, data []byte) error
	Seal() error
}

// liveTailDrive runs the shared scenario shape against an open sink:
// write prefix messages as fast as the sink accepts them (closing
// prefixDone so the caller starts the follower against a fully
// recorded prefix), wait for the follower to report it drained them,
// then write paced messages one every pace with the send wall-clock
// encoded in the payload, and seal. caughtUp is closed by the follower
// after its prefix-th delivery.
func liveTailDrive(sink liveTailSink, prefix, paced int, pace time.Duration, payload int, prefixDone chan<- struct{}, caughtUp <-chan struct{}) error {
	conn, err := sink.AddConnection("/telemetry", "bora_bench/Telemetry")
	if err != nil {
		return err
	}
	buf := make([]byte, payload)
	ts := func(i int) bagio.Time { return bagio.TimeFromNanos(int64(1_600_000_000)*1e9 + int64(i)*1e6) }
	// Prefix: send-time zero marks "not a latency sample".
	binary.LittleEndian.PutUint64(buf, 0)
	for i := 0; i < prefix; i++ {
		if err := sink.WriteMessage(conn, ts(i), buf); err != nil {
			return err
		}
	}
	close(prefixDone)
	<-caughtUp
	for i := 0; i < paced; i++ {
		time.Sleep(pace)
		binary.LittleEndian.PutUint64(buf, uint64(time.Now().UnixNano()))
		if err := sink.WriteMessage(conn, ts(prefix+i), buf); err != nil {
			return err
		}
	}
	return sink.Seal()
}

// liveTailCollect folds one delivered payload into res: counting the
// prefix until the follower has caught up (closing caughtUp at that
// point), then turning each encoded send time into a latency sample.
func liveTailCollect(res *liveTailResult, data []byte, prefix int, queryStart time.Time, caughtUp chan struct{}) {
	if sent := binary.LittleEndian.Uint64(data); sent != 0 {
		res.latencies = append(res.latencies, time.Since(time.Unix(0, int64(sent))))
		return
	}
	res.catchupMsgs++
	if res.catchupMsgs == prefix {
		res.catchup = time.Since(queryStart)
		close(caughtUp)
	}
}

// liveTailLocalRun measures the in-process tail: a core.Recorder feeds
// a live bag while a Follow query on a handle wired to it tails the
// journal directly — no wire protocol, the floor the network path is
// judged against.
func liveTailLocalRun(b *core.BORA, name string, prefix, paced int, pace time.Duration, payload int) (*liveTailResult, error) {
	rec, err := b.CreateLiveBag(name, time.Second)
	if err != nil {
		return nil, err
	}
	res := &liveTailResult{}
	prefixDone := make(chan struct{})
	caughtUp := make(chan struct{})
	followErr := make(chan error, 1)
	driveErr := make(chan error, 1)
	go func() { driveErr <- liveTailDrive(rec, prefix, paced, pace, payload, prefixDone, caughtUp) }()
	<-prefixDone
	bag, err := b.Open(name)
	if err != nil {
		return nil, err
	}
	queryStart := time.Now()
	go func() {
		followErr <- bag.QueryContext(context.Background(), core.QuerySpec{Follow: true}, func(m core.MessageRef) error {
			liveTailCollect(res, m.Data, prefix, queryStart, caughtUp)
			return nil
		})
	}()
	if err := <-driveErr; err != nil {
		return nil, err
	}
	if err := <-followErr; err != nil {
		return nil, err
	}
	return res, nil
}

// liveTailNetRun measures the full network path: client.Record uploads
// over loopback TCP through the credit window while a second client's
// Follow query streams the same bag back — write → server journal →
// follower wakeup → wire → client decode.
func liveTailNetRun(b *core.BORA, name string, prefix, paced int, pace time.Duration, payload int) (*liveTailResult, error) {
	srv := server.New(b, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer srv.Close()
	addr := ln.Addr().String()

	up, err := client.Dial(addr, client.Options{})
	if err != nil {
		return nil, err
	}
	defer up.Close()
	down, err := client.Dial(addr, client.Options{})
	if err != nil {
		return nil, err
	}
	defer down.Close()

	rs, err := up.Record(name, client.RecordSpec{Live: true})
	if err != nil {
		return nil, err
	}
	res := &liveTailResult{}
	prefixDone := make(chan struct{})
	caughtUp := make(chan struct{})
	driveErr := make(chan error, 1)
	go func() { driveErr <- liveTailDrive(rs, prefix, paced, pace, payload, prefixDone, caughtUp) }()
	<-prefixDone

	st, err := down.Query(name, client.QuerySpec{Follow: true})
	if err != nil {
		return nil, err
	}
	queryStart := time.Now()
	for st.Next() {
		liveTailCollect(res, st.Message().Data, prefix, queryStart, caughtUp)
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	if err := <-driveErr; err != nil {
		return nil, err
	}
	srv.Close()
	if err := <-serveErr; err != nil && err != server.ErrServerClosed {
		return nil, err
	}
	return res, nil
}

// latencyQuantile returns the q-quantile (0..1) of samples, which it
// sorts in place.
func latencyQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(q * float64(len(samples)-1))
	return samples[idx]
}

// runLiveTail measures the live-ingest pipeline: how fast a Follow
// query drains the sealed prefix of a recording bag (catch-up
// throughput), and how stale the tail is once caught up
// (write-to-delivery latency of each subsequent message), in-process
// and over loopback TCP.
func runLiveTail(reg *obs.Registry) (*Table, error) {
	const (
		prefixMsgs = 20000
		pacedMsgs  = 600
		pace       = time.Millisecond
		payload    = 256
	)
	t := &Table{
		ID:     "live-tail",
		Title:  "Live ingest: Follow catch-up throughput and tail latency",
		Header: []string{"scenario", "catch-up", "throughput", "tail msgs", "p50", "p99", "max"},
		Notes: []string{
			fmt.Sprintf("%d-message recorded prefix drained by the follower, then %d messages paced at one per %v", prefixMsgs, pacedMsgs, pace),
			"latency = wall clock from WriteMessage to follower delivery (send time rides the payload)",
			"in-process = recorder and Follow query share the process; loopback = client.Record + Follow over TCP with credit flow control",
		},
	}
	dir, err := os.MkdirTemp("", "bora-livetail-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b, err := core.New(dir, core.Options{Obs: reg})
	if err != nil {
		return nil, err
	}
	for _, sc := range []struct {
		label string
		name  string
		run   func(*core.BORA, string, int, int, time.Duration, int) (*liveTailResult, error)
	}{
		{"in-process", "tail-local", liveTailLocalRun},
		{"loopback TCP", "tail-net", liveTailNetRun},
	} {
		res, err := sc.run(b, sc.name, prefixMsgs, pacedMsgs, pace, payload)
		if err != nil {
			return nil, err
		}
		rate := float64(res.catchupMsgs) / res.catchup.Seconds()
		t.Rows = append(t.Rows, []string{
			sc.label,
			fmtDur(res.catchup),
			fmt.Sprintf("%.0fk msg/s", rate/1000),
			fmt.Sprintf("%d", len(res.latencies)),
			fmtDur(latencyQuantile(res.latencies, 0.50)),
			fmtDur(latencyQuantile(res.latencies, 0.99)),
			fmtDur(latencyQuantile(res.latencies, 1.0)),
		})
	}
	if reg != nil {
		t.Phases = []Phase{{Name: "tail", Snap: reg.Snapshot()}}
	}
	return t, nil
}
