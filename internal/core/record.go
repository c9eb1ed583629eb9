package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/msgdef"
	"repro/internal/msgs"
)

// Recorder writes messages directly into BORA containers as they
// arrive — the paper's "online usage of BORA" (Section III-C), which
// skips the intermediate log-structured bag entirely: data lands
// pre-organized by topic, so no duplication pass is ever needed.
//
// A Recorder runs in one of two modes:
//
//   - CreateBag builds one classic container: every message lands in a
//     single building container that Close seals — the shape Rebag and
//     Duplicate produce.
//   - CreateLiveBag builds a live bag: messages land in time-windowed
//     segments (each a standard container) that seal as their window
//     closes, and the bag is queryable *while recording* — Open returns
//     a handle wired to this recorder, and Follow queries tail it.
//
// All writes are serialized through one recorder mutex. That total
// order is what live followers tail: each write appends the message's
// index entry to an in-memory journal, and a Follow query delivers the
// journal suffix it subscribed after, in order, with no duplicates or
// gaps.
type Recorder struct {
	b      *BORA
	name   string
	live   bool
	window int64 // segment rotation window in nanoseconds (live only)

	mu     sync.Mutex
	segs   []*segment // classic recordings have exactly one; live ones grow one per rotation window
	cur    *segment
	segEnd int64 // rotation boundary (ns); 0 until the first write
	// The one connection table: a connection's ID is its index, and it
	// keeps that ID across segment rotations.
	conns   []*bagio.Connection
	byTopic map[string]*bagio.Connection
	// parts is what a wired Bag reads: each topic's parts in segment
	// order. A topic appears here with its first message.
	parts  map[string][]*container.Topic
	count  int64
	sealed bool
	closed bool

	journal   []tailRef
	followers map[*follower]struct{}
}

// tailRef is one journal entry: the topic part a message landed in and
// the index entry describing it. The referenced payload bytes are
// already durable (TopicWriter writes data before publishing the
// entry), so a follower can read the message back at any time.
type tailRef struct {
	t *container.Topic
	e container.IndexEntry
}

// follower is one live tail subscription. pos and limits are a
// consistent snapshot taken under the recorder mutex: limits holds each
// existing topic part's entry count at subscribe time, and pos is the
// journal length — journal[pos:] is exactly the set of messages not
// covered by limits.
type follower struct {
	ch     chan struct{} // capacity 1: write notifications coalesce
	pos    int
	limits map[*container.Topic]int
}

// CreateBag starts recording a new logical bag directly into a classic
// single-container layout on the back end.
func (b *BORA) CreateBag(name string) (*Recorder, error) {
	seg, err := b.createSegment(filepath.Join(b.root, name))
	if err != nil {
		return nil, err
	}
	return b.newRecorder(name, seg), nil
}

func (b *BORA) newRecorder(name string, seg *segment) *Recorder {
	return &Recorder{
		b: b, name: name,
		segs: []*segment{seg}, cur: seg,
		byTopic: map[string]*bagio.Connection{},
		parts:   map[string][]*container.Topic{},
	}
}

// connLocked returns the recorder's connection for src's topic,
// registering a copy of src — every field but the ID — on first sight.
func (r *Recorder) connLocked(src *bagio.Connection) *bagio.Connection {
	if c, ok := r.byTopic[src.Topic]; ok {
		return c
	}
	c := *src
	c.ID = uint32(len(r.conns))
	r.conns = append(r.conns, &c)
	r.byTopic[c.Topic] = &c
	return &c
}

// typedConnLocked is connLocked for a caller that knows only the topic
// and type: the md5sum and definition come from msgdef when it knows
// the type.
func (r *Recorder) typedConnLocked(topic, msgType string) *bagio.Connection {
	if c, ok := r.byTopic[topic]; ok {
		return c
	}
	c := &bagio.Connection{Topic: topic, Type: msgType}
	if sum, err := msgdef.MD5(msgType); err == nil {
		c.MD5Sum = sum
	}
	if def, err := msgdef.FullText(msgType); err == nil {
		c.Def = def
	}
	return r.connLocked(c)
}

// rotateLocked advances the building segment when t crosses the current
// rotation boundary. Boundaries are aligned to the window width, set by
// the first message's timestamp. Rotation only moves forward: a message
// timestamped before the boundary (out-of-order sources) lands in the
// current segment, so segments may overlap in time — chronological
// queries merge across segments, so delivery order is unaffected.
func (r *Recorder) rotateLocked(t bagio.Time) error {
	ns := t.Nanos()
	if r.segEnd == 0 {
		r.segEnd = (ns/r.window)*r.window + r.window
		return nil
	}
	if ns < r.segEnd {
		return nil
	}
	if err := r.cur.seal(); err != nil {
		return err
	}
	seg, err := r.b.createSegment(segmentDir(filepath.Join(r.b.root, r.name), len(r.segs)))
	if err != nil {
		return err
	}
	r.segs = append(r.segs, seg)
	r.cur = seg
	r.segEnd = (ns/r.window)*r.window + r.window
	return nil
}

// errClosedLocked reports a write or registration after Seal or Close.
func (r *Recorder) errClosedLocked() error {
	if r.sealed || r.closed {
		return fmt.Errorf("bora: recorder for %q is closed", r.name)
	}
	return nil
}

// appendLocked is the one append every write entry point ends in.
func (r *Recorder) appendLocked(conn *bagio.Connection, t bagio.Time, data []byte) error {
	if r.live {
		if err := r.rotateLocked(t); err != nil {
			return err
		}
	}
	tw, ok := r.cur.topics[conn.Topic]
	if !ok {
		var err error
		if tw, err = r.cur.writer(conn); err != nil {
			return err
		}
		r.parts[conn.Topic] = append(r.parts[conn.Topic], tw.Topic())
	}
	if err := tw.Append(t, data); err != nil {
		return err
	}
	r.count++
	if r.live {
		r.journal = append(r.journal, tailRef{t: tw.Topic(), e: tw.LastEntry()})
		r.notifyLocked()
	}
	return nil
}

// WriteRaw appends one serialized message on a topic, registering the
// connection on first use.
func (r *Recorder) WriteRaw(topic, msgType string, t bagio.Time, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.errClosedLocked(); err != nil {
		return err
	}
	return r.appendLocked(r.typedConnLocked(topic, msgType), t, data)
}

// writeConn is WriteRaw for a message that arrives with its full
// connection metadata (Rebag): everything but the ID carries over, so
// nothing msgdef does not know is lost.
func (r *Recorder) writeConn(conn *bagio.Connection, t bagio.Time, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.errClosedLocked(); err != nil {
		return err
	}
	return r.appendLocked(r.connLocked(conn), t, data)
}

// WriteMsg marshals and appends one typed message.
func (r *Recorder) WriteMsg(topic string, t bagio.Time, m msgs.Message) error {
	return r.WriteRaw(topic, m.TypeName(), t, m.Marshal(nil))
}

// AddConnection registers a connection for WriteMessage, implementing
// RecordSink. Registering the same topic again returns the original ID.
func (r *Recorder) AddConnection(topic, msgType string) (uint32, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.errClosedLocked(); err != nil {
		return 0, err
	}
	return r.typedConnLocked(topic, msgType).ID, nil
}

// WriteMessage appends one serialized message on a connection returned
// by AddConnection, implementing RecordSink.
func (r *Recorder) WriteMessage(conn uint32, t bagio.Time, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.errClosedLocked(); err != nil {
		return err
	}
	if int(conn) >= len(r.conns) {
		return fmt.Errorf("bora: recorder for %q: unknown connection %d", r.name, conn)
	}
	return r.appendLocked(r.conns[conn], t, data)
}

// MessageCount returns the number of messages recorded so far.
func (r *Recorder) MessageCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Topics returns the sorted topics recorded so far.
func (r *Recorder) Topics() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.topicsLocked()
}

func (r *Recorder) topicsLocked() []string {
	out := make([]string, 0, len(r.parts))
	for name := range r.parts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Segments returns the number of segments (sealed + building) written
// so far. Classic recordings always report 1.
func (r *Recorder) Segments() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.segs)
}

// topicPaths snapshots topic → back-end dir (first segment containing
// the topic) for the tag table of a wired Bag.
func (r *Recorder) topicPaths() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	paths := make(map[string]string, len(r.parts))
	for name, parts := range r.parts {
		paths[name] = parts[0].Dir()
	}
	return paths
}

// chains snapshots the per-topic part lists (segment order) for a
// query over the wired bag. Empty topics selects everything recorded so
// far. When lenient, unknown topics are skipped instead of failing —
// a Follow query may subscribe to a topic before its first message.
func (r *Recorder) chains(topics []string, lenient bool) ([]topicChain, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(topics) == 0 {
		topics = r.topicsLocked()
	}
	out := make([]topicChain, 0, len(topics))
	for _, name := range topics {
		parts := r.parts[name]
		if len(parts) == 0 {
			if lenient {
				continue
			}
			return nil, fmt.Errorf("bora: unknown topic %q", name)
		}
		// Capped: the recorder keeps appending to its own slice.
		out = append(out, topicChain{name: name, parts: parts[:len(parts):len(parts)]})
	}
	return out, nil
}

// subscribe registers a live tail. The returned follower's limits/pos
// pair is a consistent cut of the recording: every message is either
// covered by limits (visible to a snapshot query) or in journal[pos:]
// (delivered by the tail), never both.
func (r *Recorder) subscribe() *follower {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &follower{
		ch:     make(chan struct{}, 1),
		pos:    len(r.journal),
		limits: map[*container.Topic]int{},
	}
	for _, parts := range r.parts {
		for _, t := range parts {
			// A writer's topic serves Entries from memory: it cannot fail.
			entries, _ := t.Entries()
			f.limits[t] = len(entries)
		}
	}
	if r.followers == nil {
		r.followers = map[*follower]struct{}{}
	}
	r.followers[f] = struct{}{}
	return f
}

func (r *Recorder) unsubscribe(f *follower) {
	r.mu.Lock()
	delete(r.followers, f)
	r.mu.Unlock()
}

// notifyLocked wakes every follower; sends coalesce on the capacity-1
// channels, so a slow follower costs the writer nothing.
func (r *Recorder) notifyLocked() {
	for f := range r.followers {
		select {
		case f.ch <- struct{}{}:
		default:
		}
	}
}

// tailBatch copies journal[pos:] into buf and reports whether the
// recording has sealed (no further writes possible). The sealed flag is
// read under the same lock as the journal snapshot, so sealed=true
// means the returned batch reaches the journal's final entry.
func (r *Recorder) tailBatch(pos int, buf []tailRef) ([]tailRef, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(buf[:0], r.journal[pos:]...), r.sealed
}

// Seal commits the recording without opening it: the building segment
// seals (index tails flushed, time indexes persisted, container meta
// sealed) and, for live bags, the live meta flips to complete with a
// fresh generation so handle caches see the change. Seal is idempotent;
// after it, writes fail and live followers drain to a clean end.
func (r *Recorder) Seal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sealLocked()
}

func (r *Recorder) sealLocked() error {
	if r.sealed {
		return nil
	}
	if err := r.cur.seal(); err != nil {
		return err
	}
	if r.live {
		dir := filepath.Join(r.b.root, r.name)
		if err := writeLiveMeta(r.b.opts.FS, dir, &liveMeta{
			State: liveStateComplete, Window: r.window, Gen: container.NewGen(),
		}); err != nil {
			return err
		}
		r.b.unregisterLive(r.name, r)
	}
	r.sealed = true
	r.notifyLocked()
	return nil
}

// Close seals the recording and returns the recorded bag, opened.
func (r *Recorder) Close() (*Bag, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("bora: recorder for %q already closed", r.name)
	}
	err := r.sealLocked()
	if err == nil {
		r.closed = true
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return r.b.Open(r.name)
}
