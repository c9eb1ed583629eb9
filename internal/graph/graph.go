// Package graph implements the ROS computation-graph substrate of
// Fig 1a/1c: a peer-to-peer set of nodes exchanging typed messages over
// logical publish/subscribe buses called topics. Publishers and
// subscribers are decoupled — neither knows of the other's existence —
// and each subscriber has a bounded queue with drop-oldest-first
// semantics, matching ROS's queue_size behaviour under back-pressure.
//
// The Recorder in record.go subscribes to topics and streams messages
// into a bag, reproducing the `rosbag record` node of Fig 1c.
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bagio"
	"repro/internal/msgs"
)

// Message is one delivered publication.
//
// Data ownership depends on how the message was published: Publish and
// PublishRaw hand every subscriber a buffer it owns, while
// PublishBorrowed delivers buffers that are valid only for the duration
// of the callback (borrowed by synchronous subscribers, shared from a
// recycled pool by asynchronous ones) — callbacks on topics fed by
// PublishBorrowed must copy what they keep and never mutate Data.
type Message struct {
	Topic string
	Type  string
	Time  bagio.Time
	Data  []byte // serialized payload; see ownership note above
}

// Graph is the registry of nodes and topic buses (the "ROS master").
type Graph struct {
	mu     sync.Mutex
	topics map[string]*bus
	nodes  map[string]*Node
	closed bool
}

// bus is one topic's fan-out point.
type bus struct {
	name    string
	msgType string

	mu      sync.Mutex
	subs    []*Subscriber
	latched *Message // last message on a latched topic
}

// New creates an empty computation graph.
func New() *Graph {
	return &Graph{topics: map[string]*bus{}, nodes: map[string]*Node{}}
}

// NewNode registers a process in the graph.
func (g *Graph) NewNode(name string) (*Node, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, fmt.Errorf("graph: graph is shut down")
	}
	if name == "" {
		return nil, fmt.Errorf("graph: empty node name")
	}
	if _, dup := g.nodes[name]; dup {
		return nil, fmt.Errorf("graph: node %q already registered", name)
	}
	n := &Node{g: g, name: name}
	g.nodes[name] = n
	return n, nil
}

// Topics returns the advertised (topic, type) pairs.
func (g *Graph) Topics() map[string]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]string, len(g.topics))
	for name, b := range g.topics {
		out[name] = b.msgType
	}
	return out
}

// topicBus returns (creating if needed) the bus for a topic, enforcing
// type consistency.
func (g *Graph) topicBus(topic, msgType string) (*bus, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, fmt.Errorf("graph: graph is shut down")
	}
	b, ok := g.topics[topic]
	if !ok {
		b = &bus{name: topic, msgType: msgType}
		g.topics[topic] = b
		return b, nil
	}
	if msgType != "" && b.msgType != "" && b.msgType != msgType {
		return nil, fmt.Errorf("graph: topic %q is %s, not %s", topic, b.msgType, msgType)
	}
	if b.msgType == "" {
		b.msgType = msgType
	}
	return b, nil
}

// Shutdown stops delivery and closes every subscriber.
func (g *Graph) Shutdown() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	buses := make([]*bus, 0, len(g.topics))
	for _, b := range g.topics {
		buses = append(buses, b)
	}
	g.mu.Unlock()
	for _, b := range buses {
		b.mu.Lock()
		subs := append([]*Subscriber(nil), b.subs...)
		b.subs = nil
		b.mu.Unlock()
		for _, s := range subs {
			s.close()
		}
	}
}

// Node is one process in the graph.
type Node struct {
	g    *Graph
	name string
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Publisher sends messages on one topic.
type Publisher struct {
	node  *Node
	bus   *bus
	latch bool
}

// Advertise declares that the node publishes msgType on topic.
func (n *Node) Advertise(topic, msgType string) (*Publisher, error) {
	return n.advertise(topic, msgType, false)
}

// advertise with latch set gives ROS latching semantics: the last
// published message is re-delivered to every new subscriber (used for
// slow-changing state like maps and calibration).
func (n *Node) advertise(topic, msgType string, latch bool) (*Publisher, error) {
	if topic == "" || msgType == "" {
		return nil, fmt.Errorf("graph: Advertise needs topic and type")
	}
	b, err := n.g.topicBus(topic, msgType)
	if err != nil {
		return nil, err
	}
	return &Publisher{node: n, bus: b, latch: latch}, nil
}

// Publish serializes m and fans it out to every subscriber.
func (p *Publisher) Publish(t bagio.Time, m msgs.Message) error {
	if m.TypeName() != p.bus.msgType {
		return fmt.Errorf("graph: publish %s on %s topic %q", m.TypeName(), p.bus.msgType, p.bus.name)
	}
	return p.PublishRaw(t, m.Marshal(nil))
}

// PublishRaw fans out pre-serialized bytes. The buffer is not copied;
// callers must not reuse it (ownership transfers to the subscribers).
func (p *Publisher) PublishRaw(t bagio.Time, data []byte) error {
	msg := Message{Topic: p.bus.name, Type: p.bus.msgType, Time: t, Data: data}
	p.bus.mu.Lock()
	if p.latch {
		latched := msg
		p.bus.latched = &latched
	}
	subs := append([]*Subscriber(nil), p.bus.subs...)
	p.bus.mu.Unlock()
	for _, s := range subs {
		s.deliver(delivery{m: msg})
	}
	return nil
}

// pubBufPool recycles the single shared copy PublishBorrowed makes for
// asynchronous subscribers, so a steady replay stream republishes
// without growing the heap.
var pubBufPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// sharedBuf refcounts one pooled publication buffer across the
// asynchronous subscribers it was fanned out to; the last release
// (after the callback returns, or when a full queue drops the message)
// returns the buffer to the pool.
type sharedBuf struct {
	buf  *[]byte
	refs atomic.Int32
}

func (b *sharedBuf) release() {
	if b.refs.Add(-1) == 0 {
		pubBufPool.Put(b.buf)
	}
}

// PublishBorrowed fans out bytes the publisher only lends: data must
// stay valid (and unmutated) for the duration of the call, and the
// publisher is free to reuse it afterwards — the borrowed-buffer dual
// of PublishRaw, built for republishing core.MessageRef payloads
// without a per-message copy (see replay.Play).
//
// Subscribers registered with subscribeSync receive data itself, inline.
// Only when the graph must retain the bytes past the call — queued
// asynchronous subscribers, or a latched topic — is a copy made: one
// pooled, refcounted buffer shared by every asynchronous subscriber
// (recycled after the last callback or drop), plus an owned copy for
// the latch. Asynchronous callbacks on such topics therefore get Data
// valid only during the callback; they must Copy what they keep.
func (p *Publisher) PublishBorrowed(t bagio.Time, data []byte) error {
	msg := Message{Topic: p.bus.name, Type: p.bus.msgType, Time: t, Data: data}
	p.bus.mu.Lock()
	if p.latch {
		latched := msg
		latched.Data = append([]byte(nil), data...)
		p.bus.latched = &latched
	}
	subs := append([]*Subscriber(nil), p.bus.subs...)
	p.bus.mu.Unlock()
	async := 0
	for _, s := range subs {
		if !s.sync {
			async++
		}
	}
	if async > 0 {
		bp := pubBufPool.Get().(*[]byte)
		*bp = append((*bp)[:0], data...)
		shared := &sharedBuf{buf: bp}
		shared.refs.Store(int32(async))
		am := msg
		am.Data = *bp
		for _, s := range subs {
			if !s.sync {
				s.deliver(delivery{m: am, release: shared.release})
			}
		}
	}
	for _, s := range subs {
		if s.sync {
			s.deliver(delivery{m: msg})
		}
	}
	return nil
}

// delivery is one queued (or inline) hand-off to a subscriber. release,
// when non-nil, must be called exactly once after the callback returns
// — or when the message is dropped — to release the refcounted pooled
// buffer backing m.Data.
type delivery struct {
	m       Message
	release func()
}

// Subscriber receives one topic's messages — through a bounded queue
// and a dedicated goroutine (Subscribe), or inline on the publisher's
// goroutine (subscribeSync).
type Subscriber struct {
	node  *Node
	bus   *bus
	sync  bool          // inline delivery; queue is nil
	cb    func(Message) // sync-mode callback
	queue chan delivery
	done  chan struct{}
	wg    sync.WaitGroup

	mu      sync.Mutex
	dropped int64
	closed  bool
}

// Subscribe attaches a callback to a topic. queueSize bounds the
// in-flight messages; when the queue is full the oldest message is
// dropped (counted in Dropped), as in ROS. The callback runs on a
// dedicated goroutine; it must not block indefinitely.
func (n *Node) Subscribe(topic string, queueSize int, cb func(Message)) (*Subscriber, error) {
	if cb == nil {
		return nil, fmt.Errorf("graph: nil callback")
	}
	if queueSize <= 0 {
		queueSize = 16
	}
	b, err := n.g.topicBus(topic, "")
	if err != nil {
		return nil, err
	}
	s := &Subscriber{
		node:  n,
		bus:   b,
		queue: make(chan delivery, queueSize),
		done:  make(chan struct{}),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case d, ok := <-s.queue:
				if !ok {
					return
				}
				cb(d.m)
				if d.release != nil {
					d.release()
				}
			case <-s.done:
				// Drain what is already queued, then exit.
				for {
					select {
					case d := <-s.queue:
						cb(d.m)
						if d.release != nil {
							d.release()
						}
					default:
						return
					}
				}
			}
		}
	}()
	return n.attach(b, s)
}

// subscribeSync attaches a callback that runs inline on the publishing
// goroutine — no queue, no drops, no cross-goroutine hand-off. The
// callback must be fast (it stalls the publisher) and must not Close
// its own subscription from inside the callback. Combined with
// PublishBorrowed this is the zero-copy delivery path: the callback's
// Message borrows the publisher's bytes and must copy what it keeps.
func (n *Node) subscribeSync(topic string, cb func(Message)) (*Subscriber, error) {
	if cb == nil {
		return nil, fmt.Errorf("graph: nil callback")
	}
	b, err := n.g.topicBus(topic, "")
	if err != nil {
		return nil, err
	}
	s := &Subscriber{
		node: n,
		bus:  b,
		sync: true,
		cb:   cb,
		done: make(chan struct{}),
	}
	return n.attach(b, s)
}

// attach registers s on the bus and replays any latched message.
func (n *Node) attach(b *bus, s *Subscriber) (*Subscriber, error) {
	b.mu.Lock()
	b.subs = append(b.subs, s)
	latched := b.latched
	b.mu.Unlock()
	if latched != nil {
		s.deliver(delivery{m: *latched})
	}
	return s, nil
}

// deliver hands one message to the subscriber: inline for sync
// subscribers, enqueued (dropping the oldest on overflow) otherwise.
// Dropped or undeliverable messages still release their pooled buffer.
func (s *Subscriber) deliver(d delivery) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if d.release != nil {
			d.release()
		}
		return
	}
	if s.sync {
		// Count the in-flight callback so close() can wait for it.
		s.wg.Add(1)
		s.mu.Unlock()
		s.cb(d.m)
		if d.release != nil {
			d.release()
		}
		s.wg.Done()
		return
	}
	s.mu.Unlock()
	for {
		select {
		case s.queue <- d:
			return
		default:
		}
		// Queue full: drop the oldest and retry.
		select {
		case old := <-s.queue:
			if old.release != nil {
				old.release()
			}
			s.mu.Lock()
			s.dropped++
			s.mu.Unlock()
		default:
		}
	}
}

// Dropped returns how many messages overflowed the queue.
func (s *Subscriber) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscriber, drains queued messages, and waits for
// the callback goroutine to finish.
func (s *Subscriber) Close() {
	s.bus.mu.Lock()
	for i, sub := range s.bus.subs {
		if sub == s {
			s.bus.subs = append(s.bus.subs[:i], s.bus.subs[i+1:]...)
			break
		}
	}
	s.bus.mu.Unlock()
	s.close()
}

func (s *Subscriber) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
}
