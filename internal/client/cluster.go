// Cluster is the fleet-aware face of the client: it routes each
// request to the owning replica set of a consistent-hash ring
// (internal/cluster/ring) and fails over when a daemon is busy, dying,
// or gone. Because every borad in a cluster mounts the same shared
// back end, routing is cache affinity rather than data ownership —
// which is what makes failover always correct (merely cold) and lets a
// mid-flight query stream resume on another replica by replaying and
// skipping the already-delivered prefix.

package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/ring"
	"repro/internal/obs"
	"repro/internal/server/wire"
)

// Cluster-level defaults used when a ClusterOptions field is zero.
const (
	// DefaultRotationAttempts is the rotation budget: how many full
	// passes over a bag's replica set a request makes before giving up
	// on an all-BUSY cluster.
	DefaultRotationAttempts = 4
	// DefaultRotationBackoff / -Max bound the jittered sleep between
	// rotation passes (the same equal-jitter schedule Options.backoff
	// uses for a single node).
	DefaultRotationBackoff    = 20 * time.Millisecond
	DefaultRotationBackoffMax = time.Second
	// DefaultDownBase / -Max bound a node's health penalty: after its
	// first failure a node sits out DefaultDownBase, doubling per
	// consecutive failure up to DefaultDownMax. Requests only touch a
	// benched node when every healthier replica has failed first.
	DefaultDownBase = 250 * time.Millisecond
	DefaultDownMax  = 15 * time.Second
	// DefaultHotQPS is the per-bag query rate (over the tracker's
	// sliding window) past which the client widens the bag's replica
	// set and spreads its traffic across it.
	DefaultHotQPS = 32.0
	// DefaultHotWiden is how many extra replicas a hot bag's set gains.
	DefaultHotWiden = 1
	// DefaultMaxIdlePerNode caps the per-node idle-connection cache.
	DefaultMaxIdlePerNode = 4
)

// ErrClusterUnavailable reports a full rotation in which every replica
// failed at the transport level (nothing was merely BUSY): the cluster
// is unreachable and retrying locally will not help. Test with
// errors.Is; the wrapped text carries the last per-node error.
var ErrClusterUnavailable = errors.New("client: no cluster node reachable")

// ErrResumeDiverged reports that a replica replayed a different message
// prefix than the failed node had delivered — the replicas are not
// serving the same bytes, so transparent failover would corrupt the
// stream. This is a deployment fault (mismatched back ends), not a
// transient one.
var ErrResumeDiverged = errors.New("client: replica stream diverged during failover resume")

// ClusterOptions configure a Cluster.
type ClusterOptions struct {
	// Replication is the replica-set width R per bag; zero selects
	// ring.DefaultReplication.
	Replication int
	// Node configures the per-node connections. Attempts is forced to 1
	// — the rotation loop owns retry, a single node never sleeps — and
	// Obs defaults to the cluster's registry.
	Node Options
	// Attempts is the rotation budget (full passes over the replica
	// set); zero selects DefaultRotationAttempts.
	Attempts int
	// Backoff / BackoffMax bound the jittered sleep between rotation
	// passes; zeros select DefaultRotationBackoff/-Max.
	Backoff    time.Duration
	BackoffMax time.Duration
	// HotQPS is the per-bag query rate past which the replica set is
	// widened by DefaultHotWiden and traffic spread across it. Zero
	// selects DefaultHotQPS; negative disables hot widening.
	HotQPS float64
	// Obs, when non-nil, records cluster.* counters (route, failover,
	// busy_retry, node_down, hot_widen, unavailable) and the
	// nodes_down gauge on this registry.
	Obs *obs.Registry

	// hotWiden overrides DefaultHotWiden for this package's tests, which
	// widen across a three-node fleet; zero selects the default.
	hotWiden int
}

func (o *ClusterOptions) fill() {
	if o.Replication <= 0 {
		o.Replication = ring.DefaultReplication
	}
	if o.Attempts <= 0 {
		o.Attempts = DefaultRotationAttempts
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultRotationBackoff
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultRotationBackoffMax
	}
	if o.HotQPS == 0 {
		o.HotQPS = DefaultHotQPS
	}
	if o.hotWiden <= 0 {
		o.hotWiden = DefaultHotWiden
	}
	if o.Node.Obs == nil {
		o.Node.Obs = o.Obs
	}
	o.Node.Attempts = 1 // the rotation loop owns retry
	o.Node.fill()
}

// Cluster routes requests across a fixed borad membership. Build one
// with NewCluster; methods are safe for concurrent use.
type Cluster struct {
	ring *ring.Ring
	opts ClusterOptions
	rot  Options // rotation backoff schedule (filled)
	hot  *obs.RateTracker
	rr   atomic.Int64 // round-robin cursor for hot-bag spreading

	routeC    *obs.Counter
	failoverC *obs.Counter
	busyC     *obs.Counter
	downC     *obs.Counter
	widenC    *obs.Counter
	unavailC  *obs.Counter
	downG     *obs.Gauge

	nodes map[string]*node // by member name; immutable after NewCluster
}

// node is one member's client-side state: an idle-connection cache and
// a health score. A node that keeps failing is benched for an
// exponentially growing window; benched nodes sort to the back of the
// candidate list, so they are only dialed when everything healthier
// already failed — which doubles as the recovery probe.
type node struct {
	cl     *Cluster
	member ring.Member

	mu        sync.Mutex
	idle      []*Client
	closed    bool
	failures  int
	down      bool
	downUntil time.Time
}

// NewCluster builds a cluster client over the membership.
func NewCluster(members []ring.Member, opts ClusterOptions) (*Cluster, error) {
	opts.fill()
	r, err := ring.New(members, ring.DefaultVNodes)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		ring: r,
		opts: opts,
		rot:  Options{Attempts: opts.Attempts, Backoff: opts.Backoff, BackoffMax: opts.BackoffMax},

		routeC:    opts.Obs.Counter("cluster.route"),
		failoverC: opts.Obs.Counter("cluster.failover"),
		busyC:     opts.Obs.Counter("cluster.busy_retry"),
		downC:     opts.Obs.Counter("cluster.node_down"),
		widenC:    opts.Obs.Counter("cluster.hot_widen"),
		unavailC:  opts.Obs.Counter("cluster.unavailable"),
		downG:     opts.Obs.Gauge("cluster.nodes_down"),

		nodes: make(map[string]*node, r.Len()),
	}
	cl.rot.fill()
	if opts.HotQPS > 0 {
		cl.hot = obs.NewRateTracker(0, 0)
	}
	for _, m := range r.Members() {
		cl.nodes[m.Name] = &node{cl: cl, member: m}
	}
	return cl, nil
}

// Ring returns the cluster's placement ring.
func (cl *Cluster) Ring() *ring.Ring { return cl.ring }

// Close drops every idle connection. In-flight streams keep their
// checked-out connections and finish normally.
func (cl *Cluster) Close() error {
	for _, n := range cl.nodes {
		n.mu.Lock()
		idle := n.idle
		n.idle, n.closed = nil, true
		n.mu.Unlock()
		for _, c := range idle {
			c.Close()
		}
	}
	return nil
}

// candidates returns the nodes to try for a bag, in order: the ring's
// replica set with healthy nodes first (preserving ring order for
// cache affinity), benched nodes demoted to the back as recovery
// probes. A hot bag's set is widened by hotWiden and its healthy
// prefix rotated round-robin, trading affinity for spread exactly
// where affinity has already paid for itself (a hot bag is warm on
// every replica). demote, when non-nil, counts as benched whether or
// not its penalty has run out.
func (cl *Cluster) candidates(name string, query bool, demote *node) []*node {
	r := cl.opts.Replication
	hot := false
	if query && cl.hot != nil {
		cl.hot.Note(name)
		if cl.hot.Rate(name) >= cl.opts.HotQPS {
			hot = true
			r += cl.opts.hotWiden
			cl.widenC.Inc()
		}
	}
	members := cl.ring.ReplicasFor(name, r)
	now := time.Now()
	avail := make([]*node, 0, len(members))
	var benched []*node
	for _, m := range members {
		n := cl.nodes[m.Name]
		if n == demote || n.benched(now) {
			benched = append(benched, n)
		} else {
			avail = append(avail, n)
		}
	}
	if hot && len(avail) > 1 {
		off := int(cl.rr.Add(1)) % len(avail)
		if off < 0 {
			off += len(avail)
		}
		rotated := make([]*node, 0, len(avail))
		rotated = append(rotated, avail[off:]...)
		rotated = append(rotated, avail[:off]...)
		avail = rotated
	}
	return append(avail, benched...)
}

// failKind classifies a request failure for the rotation loop.
type failKind int

const (
	failNone  failKind = iota
	failBusy           // admission reject: node healthy, rotate and maybe re-pass
	failFatal          // deterministic: every replica would answer the same
	failDown           // transport-level: bench the node, try the next
)

func classify(err error) failKind {
	if err == nil {
		return failNone
	}
	if errors.Is(err, ErrBusy) {
		return failBusy
	}
	if errors.Is(err, ErrResumeDiverged) || errors.Is(err, ErrStreamActive) {
		return failFatal
	}
	var se *ServerError
	if errors.As(err, &se) {
		if se.Canceled() {
			return failDown // the daemon is draining or dying: go elsewhere
		}
		return failFatal // semantic: shared back end answers identically everywhere
	}
	return failDown // dial refusal, reset, timeout, framing loss
}

// connReusable reports whether the connection's framing survived the
// error (BUSY and ERR are in-protocol answers; everything else leaves
// the conn in an undefined state).
func connReusable(err error) bool {
	if errors.Is(err, ErrBusy) {
		return true
	}
	var se *ServerError
	return errors.As(err, &se)
}

func (n *node) benched(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down && now.Before(n.downUntil)
}

// markUp resets the node's health after any successful exchange.
func (n *node) markUp() {
	n.mu.Lock()
	was := n.down
	n.down = false
	n.failures = 0
	n.downUntil = time.Time{}
	n.mu.Unlock()
	if was {
		n.cl.downG.Add(-1)
	}
}

// markDown benches the node for an exponentially growing window and
// drops its idle connections (they share the failed one's fate).
func (cl *Cluster) markDown(n *node) {
	n.mu.Lock()
	n.failures++
	d := DefaultDownBase << (n.failures - 1)
	if d > DefaultDownMax || d <= 0 {
		d = DefaultDownMax
	}
	n.downUntil = time.Now().Add(d)
	first := !n.down
	n.down = true
	idle := n.idle
	n.idle = nil
	n.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
	cl.downC.Inc()
	if first {
		cl.downG.Add(1)
	}
}

// checkout returns a connection to the node: a cached idle one when
// available (cached=true), else a fresh dial.
func (n *node) checkout() (c *Client, cached bool, err error) {
	n.mu.Lock()
	if k := len(n.idle); k > 0 {
		c = n.idle[k-1]
		n.idle = n.idle[:k-1]
		n.mu.Unlock()
		return c, true, nil
	}
	n.mu.Unlock()
	c, err = DialContext(context.Background(), n.member.Addr, n.cl.opts.Node)
	return c, false, err
}

func (n *node) checkin(c *Client) {
	n.mu.Lock()
	if !n.closed && len(n.idle) < DefaultMaxIdlePerNode {
		n.idle = append(n.idle, c)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	c.Close()
}

func (n *node) flushIdle() {
	n.mu.Lock()
	idle := n.idle
	n.idle = nil
	n.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// withConn runs fn over one of the node's connections. fn reports
// whether it kept the connection (a stream now owns it); otherwise the
// connection returns to the idle cache when the framing survived. A
// transport failure on a cached connection gets one fresh dial on the
// same node before the failure propagates — an idle conn killed by a
// daemon restart must not read as the restarted daemon being down.
func (n *node) withConn(fn func(*Client) (kept bool, err error)) error {
	var stale error // the cached connection's failure, while retrying
	for {
		c, cached, err := n.checkout()
		if err != nil {
			if stale != nil {
				return stale
			}
			return err
		}
		kept, err := fn(c)
		if kept {
			return nil
		}
		if err == nil || connReusable(err) {
			n.checkin(c)
			return err
		}
		c.Close()
		if !cached || stale != nil {
			return err
		}
		stale = err
		n.flushIdle()
	}
}

// rotate runs try against the bag's replica set: candidates in health-
// then-ring order (demote, the node a stream failover just abandoned,
// among the benched), rotating on BUSY and benching on transport failure. A
// full pass in which nothing was even BUSY means the cluster is
// unreachable — fail fast with ErrClusterUnavailable instead of
// burning the backoff schedule against dead sockets. Node health and
// the cluster.* retry counters are decided here and nowhere else.
func (cl *Cluster) rotate(name string, query bool, demote *node, try func(*node) error) error {
	var lastErr error
	for attempt := 1; attempt <= cl.rot.Attempts; attempt++ {
		if attempt > 1 {
			time.Sleep(cl.rot.backoff(attempt - 1))
		}
		sawBusy := false
		for i, n := range cl.candidates(name, query, demote) {
			if i > 0 {
				cl.failoverC.Inc()
			}
			err := try(n)
			switch classify(err) {
			case failNone:
				n.markUp()
				return nil
			case failBusy:
				n.markUp() // alive, just loaded
				cl.busyC.Inc()
				sawBusy = true
				lastErr = err
			case failFatal:
				if connReusable(err) {
					n.markUp() // it answered; the answer is the same everywhere
				}
				return err
			case failDown:
				cl.markDown(n)
				lastErr = err
			}
		}
		if !sawBusy {
			cl.unavailC.Inc()
			return fmt.Errorf("%w: %v", ErrClusterUnavailable, lastErr)
		}
	}
	return lastErr
}

// do routes one unary request: fn runs over a connection of whichever
// replica the rotation reaches.
func (cl *Cluster) do(name string, fn func(*Client) error) error {
	cl.routeC.Inc()
	return cl.rotate(name, false, nil, func(n *node) error {
		return n.withConn(func(c *Client) (bool, error) { return false, fn(c) })
	})
}

// Open warms the named bag on its owning replica.
func (cl *Cluster) Open(name string) error {
	return cl.do(name, func(c *Client) error { return c.Open(name) })
}

// Info returns the named bag's topics from its owning replica.
func (cl *Cluster) Info(name string) (wire.BagInfo, error) {
	var bi wire.BagInfo
	err := cl.do(name, func(c *Client) (err error) {
		bi, err = c.Info(name)
		return err
	})
	return bi, err
}

// Stats collects serving counters from every reachable node, keyed by
// member name; unreachable nodes are simply absent.
func (cl *Cluster) Stats() map[string]wire.ServerStats {
	out := make(map[string]wire.ServerStats, len(cl.nodes))
	for _, m := range cl.ring.Members() {
		n := cl.nodes[m.Name]
		var st wire.ServerStats
		err := n.withConn(func(c *Client) (_ bool, err error) {
			st, err = c.Stats()
			return false, err
		})
		if err == nil {
			out[m.Name] = st
		}
	}
	return out
}
