package core

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/obs"
	"repro/internal/rosbag"
	"repro/internal/tagman"
)

// Stats counts the I/O-relevant operations performed on an open BORA
// bag, mirroring rosbag.Stats for side-by-side comparison.
type Stats struct {
	Seeks          int   // topic-part data files opened: one per part a query delivers from
	DataReads      int   // reads issued against those files: one per coalesced extent, whatever the reader
	BytesRead      int64 // payload bytes read
	EntriesScanned int   // index entries examined: binary-search probes included
	WindowsScanned int   // coarse time-index windows touched
	MessagesRead   int   // messages delivered to callers
}

// MessageRef is one message yielded by a BORA query.
//
// Buffer-ownership contract: Data is READ-ONLY and borrowed — it is
// valid only for the duration of the callback it was passed to. The
// bytes live in a per-stream scratch buffer (reused for the next
// message) or are a direct slice of a pooled handle's read-only mapping
// of the part, so a callback that stores Data, mutates it, or hands it
// to another goroutine that outlives the callback must take an owned
// copy first: Copy returns the bytes (a retained slice of a mapping
// faults once the handle is collected).
// Callbacks that fully consume the message before returning (writing it
// to a file, socket, or sink; decoding it; counting it) need neither.
// This is what makes the steady-state query hot loop allocation-free.
type MessageRef struct {
	Conn *bagio.Connection
	Time bagio.Time
	Data []byte
}

// Copy returns an owned copy of Data, valid indefinitely.
func (m MessageRef) Copy() []byte {
	return append([]byte(nil), m.Data...)
}

// msgScratch is one stream's reusable read buffer. Every query plan
// draws scratches from scratchPool — one per concurrent topic stream —
// so steady-state reads allocate nothing: a buffer grows to the largest
// message it has carried and is then shared across queries.
type msgScratch struct{ buf []byte }

var scratchPool = sync.Pool{New: func() interface{} { return new(msgScratch) }}

// bagObs holds the pre-resolved obs handles for a bag's query paths;
// all fields are nil (no-op) when observability is off.
type bagObs struct {
	read       *obs.Op // core.read: full-topic query (Fig 7)
	readTime   *obs.Op // core.read_time: topics + time range (Fig 8)
	readChrono *obs.Op // core.read_chrono: chronological merge, a run of one part per step
	readPooled *obs.Op // core.read_parallel: concurrent per-topic streams
	readTopic  *obs.Op // core.read_topic: one topic's sequential stream
	follow     *obs.Op // core.follow: snapshot + live-tail query
	export     *obs.Op // core.export: container -> standard bag stream
}

func newBagObs(reg *obs.Registry) bagObs {
	return bagObs{
		read:       reg.Op("core.read"),
		readTime:   reg.Op("core.read_time"),
		readChrono: reg.Op("core.read_chrono"),
		readPooled: reg.Op("core.read_parallel"),
		readTopic:  reg.Op("core.read_topic"),
		follow:     reg.Op("core.follow"),
		export:     reg.Op("core.export"),
	}
}

// topicChain is one topic's part list across a bag's segments, in
// segment (= write) order. Classic bags have single-part chains; live
// bags accumulate one part per segment the topic appeared in. Reading
// the parts in order preserves per-topic append order, so a chain
// behaves exactly like one long topic.
type topicChain struct {
	name  string
	parts []*container.Topic
}

// Bag is an open logical bag backed by one or more BORA containers
// (classic bags have exactly one; live bags have one per segment). A
// Bag is safe for concurrent queries: the stats counters are guarded by
// an internal mutex, and the derived state a query reads (connections,
// index entries, time indexes) is held once per handle by the bag's
// container.Topics.
type Bag struct {
	name string
	segs []*container.Container
	// rec wires a handle opened mid-recording to its in-process
	// recorder: topic chains are re-snapshotted from the recorder per
	// query (tracking segment rotation), and Follow queries subscribe
	// to its live tail. Nil for classic and completed live bags.
	rec     *Recorder
	liveGen uint64 // completion generation of a complete live bag
	tags    *tagman.Table
	ops     bagObs

	mu    sync.Mutex // guards stats
	stats Stats
}

// Name returns the logical bag name.
func (bag *Bag) Name() string { return bag.name }

// Topics returns the bag's sorted topic names: the tag table's keys,
// or, on a live-wired handle, whatever has been recorded so far.
func (bag *Bag) Topics() []string {
	if bag.rec != nil {
		return bag.rec.Topics()
	}
	return bag.tags.Topics()
}

// TagTable exposes the tag manager's hash table (topic → back-end path).
// For a live-wired handle it is the snapshot taken at open.
func (bag *Bag) TagTable() *tagman.Table { return bag.tags }

// Container exposes the bag's first (for live bags: oldest) container.
// Segment-spanning callers should use Segments.
func (bag *Bag) Container() *container.Container {
	if segs := bag.Segments(); len(segs) > 0 {
		return segs[0]
	}
	return nil
}

// Segments returns the bag's containers in segment order. Classic bags
// return exactly one. For a live-wired handle this is a snapshot —
// rotation may append more — taken after the recorder's append buffers
// are flushed, so every message recorded so far is in a data file.
func (bag *Bag) Segments() []*container.Container {
	if bag.rec != nil {
		bag.rec.mu.Lock()
		bag.rec.flushLocked() // a failure is sticky: the next write or query reports it
		out := make([]*container.Container, len(bag.rec.segs))
		for i, seg := range bag.rec.segs {
			out[i] = seg.c
		}
		bag.rec.mu.Unlock()
		return out
	}
	out := make([]*container.Container, len(bag.segs))
	copy(out, bag.segs)
	return out
}

// LiveWired reports whether this handle is wired to an in-process
// recorder still recording — the state in which Follow queries tail a
// live feed and handle caches treat the handle as always-fresh.
func (bag *Bag) LiveWired() bool { return bag.rec != nil }

// Generation returns the bag's sealed generation token (the container
// seal gen for classic bags, the live meta's completion gen for
// complete live bags) and 0 while recording — a recording bag has no
// stable generation yet.
func (bag *Bag) Generation() uint64 {
	if bag.rec != nil {
		return 0
	}
	if bag.liveGen != 0 {
		return bag.liveGen
	}
	if len(bag.segs) > 0 {
		return bag.segs[0].Generation()
	}
	return 0
}

// MapData makes this handle read each sealed part through one shared
// read-only mapping (container.Container.MapData); the pool calls it on
// the handles it keeps. Live-wired handles skip it: the building
// segment's data files still grow.
func (bag *Bag) MapData() {
	if bag.rec != nil {
		return
	}
	for _, c := range bag.segs {
		c.MapData()
	}
}

// Stats returns the operation counters accumulated so far.
func (bag *Bag) Stats() Stats {
	bag.mu.Lock()
	defer bag.mu.Unlock()
	return bag.stats
}

// Connections returns connection metadata for every topic. Callers
// must not mutate the returned slice's entries.
func (bag *Bag) Connections() ([]*bagio.Connection, error) {
	chains, err := bag.chains(nil, false)
	if err != nil {
		return nil, err
	}
	conns := make([]*bagio.Connection, len(chains))
	for i, ch := range chains {
		conns[i] = ch.parts[0].Connection()
	}
	return conns, nil
}

// MessageCount returns the total message count across the given topics
// (all topics when none are given), read from each topic part's index
// entries — loaded from disk once per handle.
func (bag *Bag) MessageCount(topics ...string) (int, error) {
	chains, err := bag.chains(topics, false)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ch := range chains {
		for _, t := range ch.parts {
			c, err := t.MessageCount()
			if err != nil {
				return 0, err
			}
			n += c
		}
	}
	return n, nil
}

// chains maps requested topics to per-topic part chains via the tag
// table — step 2 of Fig 7. Live-wired handles snapshot the chains from
// the recorder instead, so queries track segment rotation. When
// lenient, unknown topics are skipped instead of failing (a Follow
// query may name a topic recorded only later).
func (bag *Bag) chains(topics []string, lenient bool) ([]topicChain, error) {
	if bag.rec != nil {
		return bag.rec.chains(topics, lenient)
	}
	if len(topics) == 0 {
		topics = bag.Topics()
	}
	out := make([]topicChain, 0, len(topics))
	for _, name := range topics {
		if _, err := bag.tags.Lookup([]string{name}); err != nil {
			if lenient {
				continue
			}
			return nil, err
		}
		var parts []*container.Topic
		for _, c := range bag.segs {
			if t, err := c.Topic(name); err == nil {
				parts = append(parts, t)
			}
		}
		if len(parts) == 0 {
			if lenient {
				continue
			}
			return nil, fmt.Errorf("bora: unknown topic %q", name)
		}
		out = append(out, topicChain{name: name, parts: parts})
	}
	return out, nil
}

// Export reconstructs a standard bag file from the container so the bag
// can be shared with machines that do not run BORA ("bag is a file").
// Messages are written in chronological order.
func (bag *Bag) Export(ws io.WriteSeeker, opts rosbag.WriterOptions) error {
	return bag.ExportSpan(ws, opts, obs.Span{})
}

// ExportSpan is Export with the core.export span nested under parent
// (e.g. the front end's vfs.open reconstructing a snapshot). A zero
// parent traces it as a root.
func (bag *Bag) ExportSpan(ws io.WriteSeeker, opts rosbag.WriterOptions, parent obs.Span) (err error) {
	sp := parent.ChildOp(bag.ops.export)
	defer func() { sp.EndErr(err) }()
	w, err := rosbag.NewWriter(ws, opts)
	if err != nil {
		return err
	}
	chains, err := bag.chains(nil, false)
	if err != nil {
		return err
	}
	conns := map[string]uint32{}
	for _, ch := range chains {
		id, err := w.RegisterConnection(ch.parts[0].Connection())
		if err != nil {
			return err
		}
		conns[ch.name] = id
	}
	err = bag.QuerySpanContext(context.Background(), sp, QuerySpec{Order: OrderTime}, func(m MessageRef) error {
		return w.WriteMessage(conns[m.Conn.Topic], m.Time, m.Data)
	})
	if err != nil {
		return err
	}
	return w.Close()
}
