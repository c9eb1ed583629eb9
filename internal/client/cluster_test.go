package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/cluster/ring"
	"repro/internal/obs"
	"repro/internal/server/wire"
)

// fakeNode is a scriptable borad stand-in: it serves a deterministic
// stream of `total` messages per query and can be told to reject with
// BUSY, answer a semantic ERR, hard-close the connection mid-stream (a
// daemon SIGKILL), drop every connection it holds (a restart), or serve
// divergent bytes (a mismatched back end).
type fakeNode struct {
	addr     string
	total    int
	opens    atomic.Int32
	queries  atomic.Int32
	busy     atomic.Bool  // answer OPEN and QUERY with BUSY
	fatal    atomic.Bool  // answer OPEN and QUERY with a semantic ERR
	dieAfter atomic.Int32 // stream position to hard-close at; -1 = never
	alt      atomic.Bool  // serve different payload bytes

	mu    sync.Mutex
	conns []net.Conn // every connection accepted so far
}

// restart closes every connection the node holds while it keeps
// accepting new ones — what a client's idle cache sees of a daemon
// restart.
func (f *fakeNode) restart() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, nc := range f.conns {
		nc.Close()
	}
	f.conns = nil
}

// reject answers a request the script refuses; false means serve it.
func (f *fakeNode) reject(nc net.Conn) bool {
	switch {
	case f.busy.Load():
		wire.WriteFrame(nc, wire.OpBusy, []byte("query limit reached"))
	case f.fatal.Load():
		wire.WriteFrame(nc, wire.OpErr, []byte(`unknown topic "/nope"`))
	default:
		return false
	}
	return true
}

func startFakeNode(t *testing.T, total int) *fakeNode {
	t.Helper()
	f := &fakeNode{total: total}
	f.dieAfter.Store(-1)
	f.addr = fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		f.mu.Lock()
		f.conns = append(f.conns, nc)
		f.mu.Unlock()
		for {
			fr, err := wire.ReadFrame(nc, 0)
			if err != nil {
				return
			}
			switch fr.Op {
			case wire.OpPing:
				wire.WriteFrame(nc, wire.OpPong, fr.Payload)
			case wire.OpOpen:
				f.opens.Add(1)
				if f.reject(nc) {
					continue
				}
				wire.WriteFrame(nc, wire.OpOK, nil)
			case wire.OpInfo:
				wire.WriteFrame(nc, wire.OpBagInfo, wire.EncodeBagInfo(wire.BagInfo{
					Name:   string(fr.Payload),
					Topics: []wire.TopicInfo{{Topic: "/t", Type: "ty", Count: uint64(f.total)}},
				}))
			case wire.OpStats:
				wire.WriteFrame(nc, wire.OpOK, []byte("{}"))
			case wire.OpQuery:
				f.queries.Add(1)
				if f.reject(nc) {
					continue
				}
				wire.WriteFrame(nc, wire.OpQueryHdr, wire.EncodeQueryHdr([]wire.ConnMeta{{Topic: "/t", Type: "ty"}}))
				die := f.dieAfter.Load()
				var bytes uint64
				for i := 0; i < f.total; i++ {
					if die >= 0 && int32(i) == die {
						return // SIGKILL stand-in: connection vanishes mid-stream
					}
					data := []byte{byte(i), byte(i >> 8), 0}
					if f.alt.Load() {
						data[2] = 0xff
					}
					wire.WriteFrame(nc, wire.OpMsg, wire.EncodeMsg(wire.Msg{
						Conn: 0, Time: bagio.Time{Sec: uint32(i)}, Data: data,
					}))
					bytes += uint64(len(data))
				}
				wire.WriteFrame(nc, wire.OpEnd, wire.EncodeEnd(wire.End{Count: uint64(f.total), Bytes: bytes}))
			case wire.OpCancel:
				wire.WriteFrame(nc, wire.OpErr, []byte("query canceled"))
			case wire.OpCredit:
				// flow-control chatter; ignore
			}
		}
	})
	return f
}

// testFleet builds three fake nodes and a cluster over them, returning
// the fakes keyed by member name so tests can script the one the ring
// picked as a bag's primary.
func testFleet(t *testing.T, total int, opts ClusterOptions) (*Cluster, map[string]*fakeNode) {
	t.Helper()
	fakes := map[string]*fakeNode{}
	var members []ring.Member
	for _, name := range []string{"n1", "n2", "n3"} {
		f := startFakeNode(t, total)
		fakes[name] = f
		members = append(members, ring.Member{Name: name, Addr: f.addr})
	}
	if opts.Backoff == 0 {
		opts.Backoff = time.Millisecond
		opts.BackoffMax = 4 * time.Millisecond
	}
	cl, err := NewCluster(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, fakes
}

// replicas resolves a bag's replica-set fakes, primary first.
func replicas(cl *Cluster, fakes map[string]*fakeNode, bag string, n int) []*fakeNode {
	var out []*fakeNode
	for _, m := range cl.Ring().ReplicasFor(bag, n) {
		out = append(out, fakes[m.Name])
	}
	return out
}

// drain consumes a cluster stream fully, returning the message indexes
// decoded from the payloads.
func drain(t *testing.T, cs *ClusterStream) []int {
	t.Helper()
	var got []int
	for cs.Next() {
		d := cs.Message().Data
		got = append(got, int(d[0])|int(d[1])<<8)
	}
	if err := cs.Err(); err != nil {
		t.Fatalf("stream failed after %d messages: %v", len(got), err)
	}
	return got
}

// TestClusterClassify pins the failure taxonomy the rotation loop
// lives by: BUSY rotates without benching, semantic server errors are
// fatal everywhere, server-side cancellation and transport loss fail
// over.
func TestClusterClassify(t *testing.T) {
	tests := []struct {
		name string
		err  error
		want failKind
	}{
		{"nil", nil, failNone},
		{"busy", fmt.Errorf("%w: limit", ErrBusy), failBusy},
		{"semantic server error", &ServerError{Msg: `unknown topic "/nope"`}, failFatal},
		{"server canceled", &ServerError{Msg: "query canceled"}, failDown},
		{"wrapped server error", fmt.Errorf("x: %w", &ServerError{Msg: "bad"}), failFatal},
		{"eof", io.EOF, failDown},
		{"net error", &net.OpError{Op: "read", Err: errors.New("connection reset by peer")}, failDown},
		{"stream active", ErrStreamActive, failFatal},
		{"resume diverged", fmt.Errorf("%w: n2", ErrResumeDiverged), failFatal},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := classify(tt.err); got != tt.want {
				t.Errorf("classify(%v) = %v, want %v", tt.err, got, tt.want)
			}
		})
	}
}

// TestClusterRoutesToPrimary: a healthy cluster concentrates a bag's
// traffic on its ring primary — cache affinity is the whole point of
// placement — and nodes outside the replica set see nothing.
func TestClusterRoutesToPrimary(t *testing.T) {
	cl, fakes := testFleet(t, 4, ClusterOptions{Replication: 2})
	const bag = "robot1"
	for i := 0; i < 5; i++ {
		drain(t, mustQuery(t, cl, bag))
	}
	set := replicas(cl, fakes, bag, 3)
	if n := set[0].queries.Load(); n != 5 {
		t.Errorf("primary served %d queries, want 5", n)
	}
	if n := set[1].queries.Load() + set[2].queries.Load(); n != 0 {
		t.Errorf("non-primary nodes saw %d queries, want 0", n)
	}
}

func mustQuery(t *testing.T, cl *Cluster, bag string) *ClusterStream {
	t.Helper()
	cs, err := cl.Query(bag, QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestClusterBusyRotates: a BUSY primary is load, not death — the
// query lands on the secondary, and once the primary has room again
// traffic snaps back to it (no down-mark).
func TestClusterBusyRotates(t *testing.T) {
	cl, fakes := testFleet(t, 4, ClusterOptions{Replication: 2})
	const bag = "robot1"
	set := replicas(cl, fakes, bag, 2)
	set[0].busy.Store(true)

	if got := drain(t, mustQuery(t, cl, bag)); len(got) != 4 {
		t.Fatalf("busy-failover stream delivered %d messages, want 4", len(got))
	}
	if set[1].queries.Load() == 0 {
		t.Error("secondary never saw the query though the primary was busy")
	}

	// Primary recovers: it must be tried first again immediately.
	set[0].busy.Store(false)
	before := set[0].queries.Load()
	drain(t, mustQuery(t, cl, bag))
	if set[0].queries.Load() != before+1 {
		t.Error("recovered-from-BUSY primary was skipped; BUSY must not bench a node")
	}
}

// TestClusterAllBusyExhaustsBudget: when every replica is BUSY the
// rotation re-passes with backoff and finally surfaces ErrBusy — not
// ErrClusterUnavailable, because the cluster is alive, just full.
func TestClusterAllBusyExhaustsBudget(t *testing.T) {
	cl, fakes := testFleet(t, 4, ClusterOptions{Replication: 2, Attempts: 3})
	const bag = "robot1"
	set := replicas(cl, fakes, bag, 2)
	set[0].busy.Store(true)
	set[1].busy.Store(true)

	_, err := cl.Query(bag, QuerySpec{})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if errors.Is(err, ErrClusterUnavailable) {
		t.Error("all-BUSY cluster misreported as unavailable")
	}
	if total := set[0].queries.Load() + set[1].queries.Load(); total != 6 {
		t.Errorf("replicas saw %d QUERY frames, want 6 (2 replicas x 3 rotation passes)", total)
	}
}

// TestClusterDeadPrimaryFailsOver: a dead primary is benched on first
// contact and the query completes on the secondary; follow-up traffic
// skips the benched node outright.
func TestClusterDeadPrimaryFailsOver(t *testing.T) {
	reg := obs.NewRegistry()
	cl, fakes := testFleet(t, 4, ClusterOptions{Replication: 2, Obs: reg})
	const bag = "robot1"
	set := replicas(cl, fakes, bag, 2)

	// Point the primary's member at a port that refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	primary := cl.Ring().ReplicasFor(bag, 1)[0].Name
	cl.nodes[primary].member.Addr = dead

	if got := drain(t, mustQuery(t, cl, bag)); len(got) != 4 {
		t.Fatalf("failover stream delivered %d messages, want 4", len(got))
	}
	if set[1].queries.Load() != 1 {
		t.Errorf("secondary served %d queries, want 1", set[1].queries.Load())
	}
	if n := reg.Counter("cluster.node_down").Load(); n < 1 {
		t.Errorf("cluster.node_down = %d, want >= 1", n)
	}

	// While benched, the dead primary must not even be dialed: the
	// second query's only traffic is the secondary's.
	drain(t, mustQuery(t, cl, bag))
	if set[1].queries.Load() != 2 {
		t.Errorf("secondary served %d queries total, want 2", set[1].queries.Load())
	}
	if g := reg.Gauge("cluster.nodes_down").Load(); g != 1 {
		t.Errorf("cluster.nodes_down gauge = %d, want 1", g)
	}
}

// TestClusterAllDownFailsFast: a fully unreachable membership returns
// the typed ErrClusterUnavailable after one rotation — it must not
// grind through the BUSY backoff schedule against dead sockets.
func TestClusterAllDownFailsFast(t *testing.T) {
	var members []ring.Member
	for i, name := range []string{"n1", "n2", "n3"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		members = append(members, ring.Member{Name: name, Addr: addr})
		_ = i
	}
	cl, err := NewCluster(members, ClusterOptions{
		Replication: 2,
		Attempts:    50,              // would be ~50 rotation sleeps if fail-fast broke
		Backoff:     2 * time.Second, // each a multi-second one
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	_, qerr := cl.Query("robot1", QuerySpec{})
	if !errors.Is(qerr, ErrClusterUnavailable) {
		t.Fatalf("err = %v, want ErrClusterUnavailable", qerr)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("fully-down cluster took %v to fail; fail-fast broken", d)
	}
	if oerr := cl.Open("robot1"); !errors.Is(oerr, ErrClusterUnavailable) {
		t.Errorf("Open err = %v, want ErrClusterUnavailable", oerr)
	}
}

// TestClusterStreamFailover is the mid-stream chaos contract: the
// serving daemon's connection vanishes partway through a stream and
// the client resumes on another replica with every message delivered
// exactly once, in order.
func TestClusterStreamFailover(t *testing.T) {
	const total = 40
	reg := obs.NewRegistry()
	cl, fakes := testFleet(t, total, ClusterOptions{Replication: 2, Obs: reg})
	const bag = "robot1"
	set := replicas(cl, fakes, bag, 2)
	set[0].dieAfter.Store(13) // die after streaming messages 0..12

	cs := mustQuery(t, cl, bag)
	got := drain(t, cs)
	if len(got) != total {
		t.Fatalf("delivered %d messages, want %d", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d carries index %d; duplicate or loss across failover", i, v)
		}
	}
	if cs.Failovers() != 1 {
		t.Errorf("Failovers() = %d, want 1", cs.Failovers())
	}
	if cs.Node() != cl.Ring().ReplicasFor(bag, 2)[1].Name {
		t.Errorf("stream finished on %q, want the secondary", cs.Node())
	}
	if n, b := cs.Received(); n != total || b == 0 {
		t.Errorf("Received() = %d msgs/%d bytes, want %d msgs", n, b, total)
	}
	if set[1].queries.Load() != 1 {
		t.Errorf("secondary saw %d queries, want 1 (the resume)", set[1].queries.Load())
	}
	if n := reg.Counter("cluster.failover").Load(); n != 1 {
		t.Errorf("cluster.failover = %d, want 1", n)
	}
}

// TestClusterResumeDivergenceDetected: if the replica a stream resumes
// on serves different bytes, the client must fail loudly — silent
// corruption is the one unforgivable failover outcome.
func TestClusterResumeDivergenceDetected(t *testing.T) {
	const total = 40
	cl, fakes := testFleet(t, total, ClusterOptions{Replication: 2})
	const bag = "robot1"
	set := replicas(cl, fakes, bag, 2)
	set[0].dieAfter.Store(13)
	set[1].alt.Store(true) // secondary serves divergent payloads

	cs := mustQuery(t, cl, bag)
	n := 0
	for cs.Next() {
		n++
	}
	if err := cs.Err(); !errors.Is(err, ErrResumeDiverged) {
		t.Fatalf("stream err = %v, want ErrResumeDiverged", err)
	}
	if n != 13 {
		t.Errorf("delivered %d messages before detecting divergence, want 13", n)
	}
}

// TestClusterInfoOpenStats: the unary requests route and decode
// through the same rotation machinery.
func TestClusterInfoOpenStats(t *testing.T) {
	cl, fakes := testFleet(t, 7, ClusterOptions{Replication: 2})
	const bag = "robot2"
	if err := cl.Open(bag); err != nil {
		t.Fatal(err)
	}
	if n := replicas(cl, fakes, bag, 1)[0].opens.Load(); n != 1 {
		t.Errorf("primary saw %d OPENs, want 1", n)
	}
	bi, err := cl.Info(bag)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Name != bag || len(bi.Topics) != 1 || bi.Topics[0].Count != 7 {
		t.Errorf("Info = %+v, want bag %q with one 7-message topic", bi, bag)
	}
	if st := cl.Stats(); len(st) != 3 {
		t.Errorf("Stats reached %d nodes, want 3", len(st))
	}
}

// TestClusterOneLoop: a unary request and a stream open are the same
// rotation — the same scripted replica set must leave both with the same
// outcome, node health, idle-connection cache and cluster.* counters.
func TestClusterOneLoop(t *testing.T) {
	const bag = "robot1"
	deadAddr := func(t *testing.T) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	type nodeState struct {
		Down     bool
		Failures int
		Idle     int
	}
	type outcome struct {
		Err      string           // "", "busy", "unavailable" or "server"
		Nodes    [2]nodeState     // primary, secondary
		Counters map[string]int64 // cluster.* counters and the nodes_down gauge
	}
	tests := []struct {
		name   string
		script func(t *testing.T, cl *Cluster, set []*fakeNode)
		want   outcome
	}{
		{
			name:   "busy then ok",
			script: func(t *testing.T, cl *Cluster, set []*fakeNode) { set[0].busy.Store(true) },
			want: outcome{Nodes: [2]nodeState{{Idle: 1}, {Idle: 1}},
				Counters: map[string]int64{"route": 1, "failover": 1, "busy_retry": 1}},
		},
		{
			name: "dead then ok",
			script: func(t *testing.T, cl *Cluster, set []*fakeNode) {
				cl.nodes[cl.Ring().ReplicasFor(bag, 1)[0].Name].member.Addr = deadAddr(t)
			},
			want: outcome{Nodes: [2]nodeState{{Down: true, Failures: 1}, {Idle: 1}},
				Counters: map[string]int64{"route": 1, "failover": 1, "node_down": 1, "nodes_down": 1}},
		},
		{
			name: "all dead",
			script: func(t *testing.T, cl *Cluster, set []*fakeNode) {
				for _, m := range cl.Ring().ReplicasFor(bag, 2) {
					cl.nodes[m.Name].member.Addr = deadAddr(t)
				}
			},
			want: outcome{Err: "unavailable", Nodes: [2]nodeState{{Down: true, Failures: 1}, {Down: true, Failures: 1}},
				Counters: map[string]int64{"route": 1, "failover": 1, "node_down": 2, "unavailable": 1, "nodes_down": 2}},
		},
		{
			name:   "fatal ERR",
			script: func(t *testing.T, cl *Cluster, set []*fakeNode) { set[0].fatal.Store(true) },
			want: outcome{Err: "server", Nodes: [2]nodeState{{Idle: 1}, {}},
				Counters: map[string]int64{"route": 1}},
		},
		{
			// The probe of a benched node answers: whatever it answers, it is up.
			name: "fatal ERR from a benched node",
			script: func(t *testing.T, cl *Cluster, set []*fakeNode) {
				cl.markDown(cl.nodes[cl.Ring().ReplicasFor(bag, 1)[0].Name])
				set[0].fatal.Store(true)
				set[1].busy.Store(true)
			},
			want: outcome{Err: "server", Nodes: [2]nodeState{{Idle: 1}, {Idle: 1}},
				Counters: map[string]int64{"route": 1, "failover": 1, "busy_retry": 1, "node_down": 1}},
		},
		{
			name: "stale idle conn after a daemon restart",
			script: func(t *testing.T, cl *Cluster, set []*fakeNode) {
				if err := cl.Open(bag); err != nil { // leaves one idle conn on the primary
					t.Fatal(err)
				}
				set[0].restart()
			},
			want: outcome{Nodes: [2]nodeState{{Idle: 1}, {}},
				Counters: map[string]int64{"route": 2}},
		},
	}
	requests := map[string]func(cl *Cluster) error{
		"request": func(cl *Cluster) error { return cl.Open(bag) },
		"stream": func(cl *Cluster) error {
			cs, err := cl.Query(bag, QuerySpec{})
			if err != nil {
				return err
			}
			for cs.Next() { // to the end: a finished stream hands its conn back
			}
			return cs.Err()
		},
	}
	for _, tt := range tests {
		for kind, request := range requests {
			t.Run(tt.name+"/"+kind, func(t *testing.T) {
				reg := obs.NewRegistry()
				cl, fakes := testFleet(t, 4, ClusterOptions{Replication: 2, Attempts: 2, Obs: reg})
				tt.script(t, cl, replicas(cl, fakes, bag, 2))

				var got outcome
				var se *ServerError
				switch err := request(cl); {
				case errors.Is(err, ErrClusterUnavailable):
					got.Err = "unavailable"
				case errors.Is(err, ErrBusy):
					got.Err = "busy"
				case errors.As(err, &se):
					got.Err = "server"
				case err != nil:
					t.Fatalf("unclassified error: %v", err)
				}
				for i, m := range cl.Ring().ReplicasFor(bag, 2) {
					n := cl.nodes[m.Name]
					n.mu.Lock()
					got.Nodes[i] = nodeState{Down: n.down, Failures: n.failures, Idle: len(n.idle)}
					n.mu.Unlock()
				}
				got.Counters = map[string]int64{}
				for _, c := range []string{"route", "failover", "busy_retry", "node_down", "unavailable"} {
					if v := reg.Counter("cluster." + c).Load(); v != 0 {
						got.Counters[c] = v
					}
				}
				if v := reg.Gauge("cluster.nodes_down").Load(); v != 0 {
					got.Counters["nodes_down"] = v
				}
				if !reflect.DeepEqual(got, tt.want) {
					t.Errorf("got  %+v\nwant %+v", got, tt.want)
				}
			})
		}
	}
}
