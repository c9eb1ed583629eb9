package bench

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster/ring"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rosbag"
	"repro/internal/server"
	"repro/internal/workload"
)

func init() {
	register("cluster-swarm", runClusterSwarm)
}

// swarmResult is one cluster scenario's outcome: fleet wall clock plus
// the cluster client's own account of how rough the ride was.
type swarmResult struct {
	elapsed   time.Duration
	failed    int    // queries that never completed (target: 0, even under a kill)
	failovers uint64 // mid-stream resumes on another daemon
	busy      uint64 // BUSY rejects absorbed by rotation/backoff
}

// swarmRun boots k in-process borad daemons — each with its own core
// view and handle pool, all over ONE shared back-end directory — and
// drives numClients concurrent swarm clients through queriesEach
// streaming queries each via the cluster client. Each client processes
// its stream like the paper's robots do: `think` of analysis per
// message, flow control (small window) keeping the server in step — so
// a stream holds its daemon's admission slot for its full paced
// duration, and a daemon's capacity is its maxQueries concurrent
// streams. Aggregate capacity therefore grows with k: that is the
// quantity the experiment scales (everything runs on one box, so raw
// CPU is deliberately not the bottleneck — admission is, as it is for
// a real fleet sized by concurrent robots per daemon). With kill set,
// the daemon owning names[0] is force-closed (listeners and live
// connections dropped, the in-process SIGKILL) once the fleet is about
// a third through; streams in flight there must fail over, not fail.
func swarmRun(backendDir string, names []string, k, numClients, queriesEach, maxQueries int, think time.Duration, kill bool) (swarmResult, error) {
	members := make([]ring.Member, k)
	servers := make(map[string]*server.Server, k)
	var lns []net.Listener
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	for i := 0; i < k; i++ {
		b, err := core.New(backendDir, core.Options{})
		if err != nil {
			return swarmResult{}, err
		}
		srv := server.New(b, server.Options{MaxQueries: maxQueries})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return swarmResult{}, err
		}
		go srv.Serve(ln)
		name := fmt.Sprintf("n%d", i+1)
		members[i] = ring.Member{Name: name, Addr: ln.Addr().String()}
		servers[name] = srv
		lns = append(lns, ln)
	}

	reg := obs.NewRegistry()
	repl := 2
	if repl > k {
		repl = k
	}
	cl, err := client.NewCluster(members, client.ClusterOptions{
		Replication: repl,
		Node:        client.Options{Window: 7 << 10}, // bytes: ≈ 16 frames of 425-byte camera_info messages
		// A deep rotation budget with quick backoff: at k=1 the whole
		// swarm funnels through maxQueries admission slots, and waiting
		// out BUSY is the experiment, not a failure.
		Attempts: 512,
		Backoff:  2 * time.Millisecond, BackoffMax: 10 * time.Millisecond,
		Obs: reg,
	})
	if err != nil {
		return swarmResult{}, err
	}
	defer cl.Close()

	victim := cl.Ring().Owner(names[0]).Name
	release := make(chan struct{})
	var killOnce sync.Once
	if kill {
		go func() {
			<-release
			servers[victim].Close()
		}()
	}

	var wg sync.WaitGroup
	failed := make([]int, numClients)
	// Mid-stream resumes, from the streams themselves: cluster.failover
	// also counts every rotation past a busy or dead first candidate.
	resumed := make([]int, numClients)
	start := time.Now()
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				if kill && c == 0 && i == queriesEach/3 {
					killOnce.Do(func() { close(release) })
				}
				cs, err := cl.Query(names[(c+i)%len(names)], client.QuerySpec{Topics: []string{workload.TopicRGBCameraInfo}})
				if err != nil {
					failed[c]++
					continue
				}
				for cs.Next() {
					if think > 0 {
						time.Sleep(think) // per-message robot-side analysis
					}
				}
				if cs.Err() != nil {
					failed[c]++
				}
				resumed[c] += cs.Failovers()
			}
		}(c)
	}
	wg.Wait()
	res := swarmResult{
		elapsed: time.Since(start),
		busy:    uint64(reg.Counter("cluster.busy_retry").Load()),
	}
	for c := range failed {
		res.failed += failed[c]
		res.failovers += uint64(resumed[c])
	}
	return res, nil
}

// runClusterSwarm measures the Fig-17-style swarm against a borad
// cluster: the same client fleet and bag set served first by one
// daemon, then by three over the identical shared back end. Each
// daemon's admission bound stays fixed, so K is the only capacity
// knob — aggregate throughput should scale near-linearly (the
// acceptance bar is 1.7x at K=3). The chaos row re-runs K=3 and
// SIGKILLs one daemon mid-swarm: the cluster client's failover must
// hold completed queries at 100%.
func runClusterSwarm(reg *obs.Registry) (*Table, error) {
	const (
		numBags     = 6
		numClients  = 12
		queriesEach = 6
		maxQueries  = 4
		think       = time.Millisecond // per-message analysis each swarm client models
	)
	dir, err := os.MkdirTemp("", "bora-swarm-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	src := filepath.Join(dir, "src.bag")
	if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{
		Seconds: 4, ScaleDown: 2000,
		Writer: rosbag.WriterOptions{ChunkThreshold: 64 * 1024},
	}); err != nil {
		return nil, err
	}
	backendDir := filepath.Join(dir, "backend")
	backend, err := core.New(backendDir, core.Options{Obs: reg})
	if err != nil {
		return nil, err
	}
	names := make([]string, numBags)
	for i := range names {
		names[i] = fmt.Sprintf("robot%d", i)
		if _, _, err := backend.Duplicate(src, names[i]); err != nil {
			return nil, err
		}
	}

	totalQueries := numClients * queriesEach
	qps := func(d time.Duration) string {
		return fmt.Sprintf("%.1f", float64(totalQueries)/d.Seconds())
	}
	t := &Table{
		ID:     "cluster-swarm",
		Title:  "Swarm vs borad cluster: K daemons, one shared back end (loopback TCP)",
		Header: []string{"scenario", "daemons", "total", "agg qps", "speedup", "failed"},
		Notes: []string{
			fmt.Sprintf("%d clients x %d camera_info streaming queries over %d bags; every daemon admits %d concurrent streams",
				numClients, queriesEach, numBags, maxQueries),
			fmt.Sprintf("clients analyze as they stream (%v/message, window 16): a stream holds its admission slot for its duration,", think),
			"so daemon capacity = concurrent robots served, and K multiplies it (single-box run; CPU is deliberately not the limit)",
			"cluster client: consistent-hash routing, R=2, BUSY rotation, failover on node death",
		},
	}

	r1, err := swarmRun(backendDir, names, 1, numClients, queriesEach, maxQueries, think, false)
	if err != nil {
		return nil, err
	}
	r3, err := swarmRun(backendDir, names, 3, numClients, queriesEach, maxQueries, think, false)
	if err != nil {
		return nil, err
	}
	chaos, err := swarmRun(backendDir, names, 3, numClients, queriesEach, maxQueries, think, true)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"K=1", "1", fmtDur(r1.elapsed), qps(r1.elapsed), "1.00x", fmt.Sprintf("%d", r1.failed)},
		[]string{"K=3", "3", fmtDur(r3.elapsed), qps(r3.elapsed), fmtRatio(r1.elapsed, r3.elapsed), fmt.Sprintf("%d", r3.failed)},
		[]string{"K=3 + SIGKILL one", "3->2", fmtDur(chaos.elapsed), qps(chaos.elapsed), fmtRatio(r1.elapsed, chaos.elapsed), fmt.Sprintf("%d", chaos.failed)},
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("K=1 absorbed %d BUSY rejects by rotation/backoff; K=3 absorbed %d", r1.busy, r3.busy),
		fmt.Sprintf("chaos row: %d mid-stream failovers, %d queries failed (target 0)", chaos.failovers, chaos.failed),
	)
	if reg != nil {
		t.Phases = []Phase{{Name: "k3", Snap: reg.Snapshot()}}
	}
	return t, nil
}
