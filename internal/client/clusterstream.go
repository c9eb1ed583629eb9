// ClusterStream: a query stream that survives the death of the daemon
// serving it. Every borad in a cluster serves the same shared back end
// and streams a given query in the same deterministic order, so a
// stream cut off after N messages resumes by re-issuing the query on
// another replica, silently skipping the first N messages, and
// verifying with a rolling checksum that the skipped prefix is
// byte-identical to what was already delivered — zero duplicated, zero
// lost, or a loud ErrResumeDiverged if the replicas disagree.

package client

import (
	"errors"
	"fmt"

	"repro/internal/obs"
)

// Query starts a streaming query against the named bag's replica set,
// rotating on BUSY and failing over on dead nodes like every other
// cluster request. The returned stream additionally fails over
// *mid-flight*: if the serving daemon dies partway, Next transparently
// resumes on another replica. The stream must be consumed (Next until
// false) or Closed.
func (cl *Cluster) Query(name string, q QuerySpec) (*ClusterStream, error) {
	cl.routeC.Inc()
	// The trace id is minted once so every failover attempt — possibly on
	// several daemons — logs under the same query identity.
	cs := &ClusterStream{cl: cl, name: name, spec: q, qid: obs.NewTraceID(), sum: resumeSeed}
	if err := cs.start(nil); err != nil {
		return nil, err
	}
	return cs, nil
}

// ClusterStream iterates a cluster query's results with the same
// Next/Message/Err contract as Stream (Message data is borrowed until
// the next Next). Not safe for concurrent use.
type ClusterStream struct {
	cl   *Cluster
	name string
	spec QuerySpec
	qid  uint64 // the trace id of every attempt

	node *node
	c    *Client
	st   *Stream

	delivered uint64 // messages handed to the caller (never re-counted on resume)
	bytes     uint64
	sum       uint64 // rolling checksum of the delivered prefix
	failovers int

	err      error
	finished bool
}

// resumeSeed is the rolling checksum's initial state (the FNV-1a
// offset basis).
const resumeSeed = 14695981039346656037

// hashMsg folds one message into the rolling prefix checksum: FNV-1a
// over the topic, timestamp, and payload, with length framing so
// ("ab","c") and ("a","bc") cannot collide.
func hashMsg(h uint64, m Message) uint64 {
	h = hashFold(h, uint64(len(m.Topic)))
	for i := 0; i < len(m.Topic); i++ {
		h = (h ^ uint64(m.Topic[i])) * 1099511628211
	}
	h = hashFold(h, uint64(m.Time.Sec)<<32|uint64(m.Time.NSec))
	h = hashFold(h, uint64(len(m.Data)))
	for i := 0; i < len(m.Data); i++ {
		h = (h ^ uint64(m.Data[i])) * 1099511628211
	}
	return h
}

func hashFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
	return h
}

// start acquires a live stream positioned just past the delivered
// prefix, through the same rotation as every other cluster request.
// demote is the node a failover just abandoned, so the resume lands
// elsewhere first.
func (cs *ClusterStream) start(demote *node) error {
	return cs.cl.rotate(cs.name, demote, func(n *node) error {
		var c *Client
		var st *Stream
		err := n.withConn(func(conn *Client) (kept bool, err error) {
			c = conn
			st, err = conn.query(cs.name, cs.spec, cs.qid)
			return err == nil, err
		})
		if err != nil {
			return err
		}
		return cs.adopt(n, c, st)
	})
}

// adopt takes ownership of a fresh stream, replaying and discarding
// the already-delivered prefix. The skipped messages' checksum must
// match what the caller saw the first time; anything else means the
// replicas are not serving identical data and failover would corrupt
// the stream.
func (cs *ClusterStream) adopt(n *node, c *Client, st *Stream) error {
	sum := uint64(resumeSeed)
	for skipped := uint64(0); skipped < cs.delivered; skipped++ {
		if !st.Next() {
			err := st.Err()
			if err == nil {
				// Clean END short of the resume point: shorter data on this
				// replica. Framing intact, conn reusable, but failover is off.
				n.checkin(c)
				return fmt.Errorf("%w: replica %s ended after %d messages, resume point is %d",
					ErrResumeDiverged, n.member.Name, skipped, cs.delivered)
			}
			if connReusable(err) {
				n.checkin(c)
			} else {
				c.Close()
			}
			return err
		}
		sum = hashMsg(sum, st.Message())
	}
	if cs.delivered > 0 && sum != cs.sum {
		// The replica replayed *different bytes* for the same prefix.
		// Abort hard: the conn is mid-stream, close it.
		c.Close()
		return fmt.Errorf("%w: replica %s prefix checksum %#x, delivered prefix was %#x",
			ErrResumeDiverged, n.member.Name, sum, cs.sum)
	}
	cs.node, cs.c, cs.st = n, c, st
	return nil
}

// Next advances to the next message, failing over to another replica
// if the serving daemon dies mid-stream. It returns false at end of
// stream or on terminal error (check Err).
func (cs *ClusterStream) Next() bool {
	if cs.finished || cs.err != nil {
		return false
	}
	for {
		if cs.st.Next() {
			m := cs.st.Message()
			cs.delivered++
			cs.bytes += uint64(len(m.Data))
			cs.sum = hashMsg(cs.sum, m)
			return true
		}
		err := cs.st.Err()
		if err == nil { // clean end of stream
			cs.finished = true
			cs.node.markUp()
			cs.node.checkin(cs.c)
			return false
		}
		var se *ServerError
		if errors.As(err, &se) && !se.Canceled() {
			// Deterministic server-side failure: every replica would
			// answer the same. Terminal ERR leaves the framing intact.
			cs.err = err
			cs.finished = true
			cs.node.checkin(cs.c)
			return false
		}
		// The daemon died (transport loss) or canceled us while draining:
		// bench it and resume the stream elsewhere.
		failed := cs.node
		if connReusable(err) {
			failed.checkin(cs.c)
		} else {
			cs.c.Close()
		}
		cs.cl.markDown(failed)
		cs.cl.failoverC.Inc()
		cs.failovers++
		if err2 := cs.start(failed); err2 != nil {
			cs.err = fmt.Errorf("client: stream failover after %d messages: %w (stream broke with: %v)",
				cs.delivered, err2, err)
			cs.finished = true
			return false
		}
	}
}

// Message returns the message Next advanced to; its Data is borrowed
// until the next Next or Close (see Message's ownership contract).
func (cs *ClusterStream) Message() Message { return cs.st.Message() }

// Err returns the terminal error, if any (nil after a complete stream).
func (cs *ClusterStream) Err() error { return cs.err }

// Received returns how many messages and payload bytes the stream has
// delivered — across all replicas it ran on, each message counted once.
func (cs *ClusterStream) Received() (count, bytes uint64) { return cs.delivered, cs.bytes }

// QueryID returns the trace id every attempt of this query ran under.
func (cs *ClusterStream) QueryID() uint64 { return cs.qid }

// Failovers returns how many times the stream resumed on another
// replica after losing its serving daemon mid-flight.
func (cs *ClusterStream) Failovers() int { return cs.failovers }

// Node returns the member currently (or last) serving the stream.
func (cs *ClusterStream) Node() string {
	if cs.node == nil {
		return ""
	}
	return cs.node.member.Name
}

// Close abandons the stream early, canceling it on the serving daemon
// and returning the connection to the idle cache. Closing a finished
// stream is a no-op.
func (cs *ClusterStream) Close() error {
	if cs.finished || cs.err != nil {
		return nil
	}
	cs.finished = true
	if err := cs.st.Close(); err != nil {
		cs.c.Close()
		return err
	}
	cs.node.checkin(cs.c)
	return nil
}
