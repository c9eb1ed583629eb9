// Cluster end-to-end: K in-process borad daemons — each its own
// core.BORA view and handle pool — serve ONE shared back-end directory
// while a cluster client routes over the consistent-hash ring. The
// suite proves the two claims the cluster design bets on: routing is
// invisible (cluster results are byte-identical to a single daemon's,
// in order), and losing a daemon mid-stream is invisible too (the
// stream resumes on a replica with zero duplicated and zero lost
// messages). Run with -race; the chaos tests are concurrency tests.
package integration

import (
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster/ring"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rosbag"
	"repro/internal/server"
	"repro/internal/workload"
)

// clusterBags is the shared-backend bag set; four bags over three
// daemons exercises every ring placement.
var clusterBags = []string{"robot0", "robot1", "robot2", "robot3"}

// buildSharedBackend synthesizes one SLAM recording and duplicates it
// into the clusterBags under a single back-end directory — the shared
// store every daemon of the cluster serves.
func buildSharedBackend(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{
		Seconds: 2, ScaleDown: 2000,
		Writer: rosbag.WriterOptions{ChunkThreshold: 32 * 1024},
	}); err != nil {
		t.Fatal(err)
	}
	backendDir := filepath.Join(dir, "backend")
	b, err := core.New(backendDir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range clusterBags {
		if _, _, err := b.Duplicate(src, name); err != nil {
			t.Fatal(err)
		}
	}
	return backendDir
}

// startBorad boots one in-process daemon over the shared directory:
// its own core view, its own pool, its own listener — exactly what a
// separate borad process would hold, minus the process boundary.
func startBorad(t *testing.T, backendDir string) (*server.Server, string) {
	t.Helper()
	b, err := core.New(backendDir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(b, server.Options{Pool: pool.New(b, pool.Options{})})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// startBoradCluster boots k daemons and returns the membership plus a
// name->server map for targeted kills.
func startBoradCluster(t *testing.T, backendDir string, k int) ([]ring.Member, map[string]*server.Server) {
	t.Helper()
	members := make([]ring.Member, k)
	servers := make(map[string]*server.Server, k)
	for i := 0; i < k; i++ {
		srv, addr := startBorad(t, backendDir)
		name := fmt.Sprintf("n%d", i+1)
		members[i] = ring.Member{Name: name, Addr: addr}
		servers[name] = srv
	}
	return members, servers
}

// msgKey captures one message completely — topic, type, timestamp, and
// the full payload bytes — so sequence equality is byte equality.
func msgKey(m client.Message) string {
	return fmt.Sprintf("%s|%s|%d.%09d|%s", m.Topic, m.Type, m.Time.Sec, m.Time.NSec, m.Data)
}

// directSequence reads the reference answer from one daemon with the
// plain single-node client.
func directSequence(t *testing.T, addr, bag string, q client.QuerySpec) []string {
	t.Helper()
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Query(bag, q)
	if err != nil {
		t.Fatal(err)
	}
	var seq []string
	for st.Next() {
		seq = append(seq, msgKey(st.Message()))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestClusterQueryMatchesSingle: for every bag and for both delivery
// orders, a query routed through the cluster — ring placement, replica
// sets, failover machinery armed — returns the byte-identical message
// sequence a single daemon returns, and INFO agrees too. Routing must
// be invisible to results.
func TestClusterQueryMatchesSingle(t *testing.T) {
	backendDir := buildSharedBackend(t)
	members, _ := startBoradCluster(t, backendDir, 3)
	cl, err := client.NewCluster(members, client.ClusterOptions{
		Backoff: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	specs := []struct {
		label string
		q     client.QuerySpec
	}{
		{"by-topic", client.QuerySpec{}},
		{"chrono", client.QuerySpec{Order: core.OrderTime}},
		{"imu-only", client.QuerySpec{Topics: []string{workload.TopicIMU}}},
	}
	for _, bag := range clusterBags {
		for _, spec := range specs {
			want := directSequence(t, members[0].Addr, bag, spec.q)
			if len(want) == 0 {
				t.Fatalf("%s/%s: reference stream is empty", bag, spec.label)
			}
			cs, err := cl.Query(bag, spec.q)
			if err != nil {
				t.Fatalf("%s/%s: %v", bag, spec.label, err)
			}
			var got []string
			for cs.Next() {
				got = append(got, msgKey(cs.Message()))
			}
			if err := cs.Err(); err != nil {
				t.Fatalf("%s/%s: %v", bag, spec.label, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: cluster delivered %d messages, single daemon %d", bag, spec.label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: message %d differs:\n cluster: %.120q\n single:  %.120q", bag, spec.label, i, got[i], want[i])
				}
			}
		}

		single, err := client.Dial(members[0].Addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantInfo, err := single.Info(bag)
		single.Close()
		if err != nil {
			t.Fatal(err)
		}
		gotInfo, err := cl.Info(bag)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotInfo, wantInfo) {
			t.Errorf("%s: cluster INFO %+v, single INFO %+v", bag, gotInfo, wantInfo)
		}
	}
}

// TestClusterChaosKillMidStream is the headline chaos scenario: a
// client streams a bag through the cluster, and partway through the
// daemon actually serving it is killed — Close force-drops listeners
// and every connection, the in-process equivalent of SIGKILL. The
// stream must complete via checksum-verified resume on a replica, and
// the delivered sequence must equal the single-daemon reference
// exactly: zero duplicated, zero lost, zero reordered.
func TestClusterChaosKillMidStream(t *testing.T) {
	backendDir := buildSharedBackend(t)
	members, servers := startBoradCluster(t, backendDir, 3)
	const bag = "robot1"
	q := client.QuerySpec{Order: core.OrderTime}
	want := directSequence(t, members[0].Addr, bag, q)

	reg := obs.NewRegistry()
	cl, err := client.NewCluster(members, client.ClusterOptions{
		// A small flow-control window keeps the server from running far
		// ahead: the kill below lands on a stream that is genuinely
		// mid-flight, not one already sitting in socket buffers.
		Node:    client.Options{Window: 8},
		Backoff: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	killAt := len(want) / 4
	if len(want)-killAt <= 16 {
		t.Fatalf("reference stream too short for a mid-flight kill: %d messages", len(want))
	}
	cs, err := cl.Query(bag, q)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for len(got) < killAt && cs.Next() {
		got = append(got, msgKey(cs.Message()))
	}
	if err := cs.Err(); err != nil {
		t.Fatalf("stream died before the kill: %v", err)
	}

	serving := cs.Node()
	if servers[serving] == nil {
		t.Fatalf("stream served by unknown node %q", serving)
	}
	servers[serving].Close() // SIGKILL: listeners and live conns force-dropped

	for cs.Next() {
		got = append(got, msgKey(cs.Message()))
	}
	if err := cs.Err(); err != nil {
		t.Fatalf("stream did not survive the kill: %v", err)
	}
	if cs.Failovers() < 1 {
		t.Errorf("Failovers() = %d after killing the serving daemon, want >= 1", cs.Failovers())
	}
	if n := reg.Counter("cluster.failover").Load(); n < 1 {
		t.Errorf("cluster.failover = %d, want >= 1", n)
	}
	if after := cs.Node(); after == serving {
		t.Errorf("stream still reports dead node %s as serving", serving)
	}

	if len(got) != len(want) {
		t.Fatalf("delivered %d messages across the kill, want %d (zero dup, zero lost)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("message %d differs after failover:\n got:  %.120q\n want: %.120q", i, got[i], want[i])
		}
	}
}

// TestClusterChaosConcurrentClients: a fleet of concurrent clients
// keeps querying every bag through one shared Cluster while a daemon
// is killed mid-run. Every query must still complete with exactly the
// right message count — streams in flight on the dead node fail over,
// new queries route around it. This is the -race workout for the
// cluster client's shared state (idle caches, health scoring, hot
// tracker).
func TestClusterChaosConcurrentClients(t *testing.T) {
	backendDir := buildSharedBackend(t)
	members, servers := startBoradCluster(t, backendDir, 3)

	q := client.QuerySpec{Topics: []string{workload.TopicIMU}}
	wantCount := make(map[string]int, len(clusterBags))
	for _, bag := range clusterBags {
		wantCount[bag] = len(directSequence(t, members[0].Addr, bag, q))
		if wantCount[bag] == 0 {
			t.Fatalf("%s: empty reference stream", bag)
		}
	}

	reg := obs.NewRegistry()
	cl, err := client.NewCluster(members, client.ClusterOptions{
		Node:    client.Options{Window: 8},
		Backoff: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const (
		clients     = 6
		queriesEach = 8
	)
	// Kill the primary of a bag every client hammers, once the fleet is
	// warmed up and streams are in flight there.
	victim := cl.Ring().Owner("robot1").Name
	release := make(chan struct{})
	var killOnce sync.Once

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				if c == 0 && i == queriesEach/2 {
					killOnce.Do(func() { close(release) })
				}
				bag := clusterBags[(c+i)%len(clusterBags)]
				cs, err := cl.Query(bag, q)
				if err != nil {
					errs[c] = fmt.Errorf("%s query %d: %w", bag, i, err)
					return
				}
				n := 0
				for cs.Next() {
					n++
				}
				if err := cs.Err(); err != nil {
					errs[c] = fmt.Errorf("%s query %d: %w", bag, i, err)
					return
				}
				if n != wantCount[bag] {
					errs[c] = fmt.Errorf("%s query %d: %d messages, want %d", bag, i, n, wantCount[bag])
					return
				}
			}
		}(c)
	}
	go func() {
		<-release
		servers[victim].Close()
	}()
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
	// The kill must have been observed as such, not raced past: the
	// victim was benched at least once.
	if down := reg.Counter("cluster.node_down").Load(); down == 0 {
		t.Error("no node_down recorded; the kill never touched live traffic")
	}
}
