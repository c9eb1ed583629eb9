package graph

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// Recorder is the `rosbag record` node of Fig 1c: it subscribes to a
// set of topics and appends every received message to a recording
// sink — a classic bag writer, a BORA container recorder, or a remote
// upload stream; anything implementing core.RecordSink. Writes are
// serialized through the recorder's own goroutine-safe path so
// publishers on different topics can run concurrently.
type Recorder struct {
	node *Node
	w    core.RecordSink

	mu       sync.Mutex
	conns    map[string]uint32
	subs     []*Subscriber
	recorded int64
	writeErr error
	stopped  bool
}

// NewRecorder creates a recorder node that subscribes to the given
// topics and records into sink. Stop must be called before sealing (or
// closing) the sink.
func NewRecorder(g *Graph, nodeName string, sink core.RecordSink, topics ...string) (*Recorder, error) {
	if len(topics) == 0 {
		return nil, fmt.Errorf("graph: recorder needs at least one topic")
	}
	node, err := g.NewNode(nodeName)
	if err != nil {
		return nil, err
	}
	r := &Recorder{node: node, w: sink, conns: map[string]uint32{}}
	for _, topic := range topics {
		sub, err := node.Subscribe(topic, 256, r.handle)
		if err != nil {
			r.Stop()
			return nil, err
		}
		r.subs = append(r.subs, sub)
	}
	return r, nil
}

// handle appends one delivered message to the bag.
func (r *Recorder) handle(m Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.writeErr != nil || r.stopped {
		return
	}
	conn, ok := r.conns[m.Topic]
	if !ok {
		var err error
		conn, err = r.w.AddConnection(m.Topic, m.Type)
		if err != nil {
			r.writeErr = err
			return
		}
		r.conns[m.Topic] = conn
	}
	if err := r.w.WriteMessage(conn, m.Time, m.Data); err != nil {
		r.writeErr = err
		return
	}
	r.recorded++
}

// Recorded returns the number of messages written so far.
func (r *Recorder) Recorded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded
}

// Dropped sums queue overflows across the recorder's subscriptions.
func (r *Recorder) Dropped() int64 {
	var n int64
	for _, s := range r.subs {
		n += s.Dropped()
	}
	return n
}

// Stop detaches the recorder's subscriptions (draining queued messages)
// and returns the first write error, if any. The bag writer itself is
// left open for the caller to Close.
func (r *Recorder) Stop() error {
	for _, s := range r.subs {
		s.Close()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	return r.writeErr
}
