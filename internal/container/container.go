// Package container implements the BORA container structure (Fig 5b of
// the paper): for each logical bag, a root directory on the underlying
// file system holding one sub-directory per topic. A topic sub-directory
// stores the topic's message payloads as one large contiguous data file
// and a fixed-width index file (timestamp, logical offset, length,
// physical pointer); the root's meta file is the manifest (meta.go).
//
// Because topic data is aggregated into per-topic files during the
// one-time duplication step, a later query by topic becomes a whole-file
// sequential read and a query by time range a window-bounded read —
// the data layout property all of BORA's gains derive from.
package container

import (
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bagio"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/timeindex"
)

// File names: a topic sub-directory's two, and the root's manifest.
const (
	DataFileName  = "data"
	IndexFileName = "index"
	MetaFileName  = ".bora_meta"
)

// EncodeTopicDir converts a ROS topic name to a file-system-safe
// directory name. ROS topic names never contain '#', so the mapping is
// reversible.
func EncodeTopicDir(topic string) string {
	return strings.ReplaceAll(strings.TrimPrefix(topic, "/"), "/", "#")
}

// DecodeTopicDir inverts EncodeTopicDir.
func DecodeTopicDir(dir string) string {
	return "/" + strings.ReplaceAll(dir, "#", "/")
}

// Container is an open BORA container rooted at a back-end directory.
type Container struct {
	root   string
	fs     faultfs.Backend   // write path: every mutation goes through it
	meta   *Meta             // parsed meta as of Open/Create/Seal
	topics map[string]*Topic // keyed by topic name
	metaf  faultfs.File      // the building manifest, open from CreateFS to the seal
	err    error             // a failed manifest append: the build cannot be sealed

	indexLoadOp *obs.Op // container.index_load: lazy index-file parses
	readOp      *obs.Op // container.read: per-message payload reads
}

// SetObs routes the container's metrics (index loads, per-message data
// reads) to reg; existing and later-created topics inherit it. A nil
// registry (the default) disables recording.
func (c *Container) SetObs(reg *obs.Registry) {
	c.indexLoadOp = reg.Op("container.index_load")
	c.readOp = reg.Op("container.read")
	for _, t := range c.topics {
		t.indexLoadOp = c.indexLoadOp
	}
}

// Generation returns the container's sealed generation (0 for a
// still-building container). Every Seal — first build, repair, rebuild
// under the same name — mints a distinct value, so two equal
// generations always describe the same on-disk tree.
func (c *Container) Generation() uint64 {
	if c.meta == nil {
		return 0
	}
	return c.meta.Gen
}

// SetBlockCache routes all topic data reads of this container through
// bc: OpenData then returns readers that serve block-cache hits from
// memory and fill misses from the underlying file. Cache keys carry the
// topic path and the container generation, so a rebuilt container never
// serves another generation's bytes. A nil cache (the default) keeps
// reads direct. Only the benchmark's cached-read probe still sets one;
// pooled handles map their parts (MapData).
func (c *Container) SetBlockCache(bc BlockCache) {
	for _, t := range c.topics {
		t.cache = bc
		t.gen = c.Generation()
	}
}

// NoteReads records a batch of message payload reads under
// container.read. Read loops accumulate locally and flush once per
// stream so the per-message hot path stays free of atomics.
func (c *Container) NoteReads(n, bytes int64) {
	c.readOp.Add(n, bytes)
}

// Topic is one topic sub-directory of a container. Topics are safe for
// concurrent readers: the lazy loads are guarded by a mutex.
type Topic struct {
	dir     string
	topic   string
	cache   BlockCache // nil: OpenData reads straight from disk
	gen     uint64     // container generation baked into cache keys
	growing bool       // made by CreateTopic: its writer publishes ix, and data is read through the file
	mapped  bool       // MapData: one data mapping and one index read for the handle, made on first use under mu
	mapping *mapping
	meta    topicMeta // the manifest's header; a writer's Close adds the checksum for the seal

	indexLoadOp *obs.Op

	mu      sync.Mutex
	ix      IndexView // the index, when loaded: the writer's published entries, or a pooled handle's read
	loaded  bool      // ix is the index: Index serves it
	ordered int       // Ordered: of the first checked entries, the leading ordered are in time order
	checked int
	tix     *timeindex.Index // memoized TimeIndex, built over tixOf entries
	tixOf   int
}

// Create initializes an empty container at root (which must not exist or
// must be an empty directory). The container is born in the building
// state and must be Sealed once its topics are complete; until then
// Open and back-end listings refuse it.
func Create(root string) (*Container, error) {
	return CreateFS(root, faultfs.OS)
}

// CreateFS is Create with the file-system mutations routed through fs
// (see internal/faultfs); production callers pass faultfs.OS.
func CreateFS(root string, fs faultfs.Backend) (*Container, error) {
	fs = faultfs.Or(fs)
	if err := fs.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("container: create root: %w", err)
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	if len(ents) > 0 {
		return nil, fmt.Errorf("container: %s is not empty", root)
	}
	// Written in place: a building container's files get no sync and no
	// rename until its seal commits them all at once (CommitFS).
	f, err := fs.Create(filepath.Join(root, MetaFileName))
	if err != nil {
		return nil, fmt.Errorf("container: write meta: %w", err)
	}
	if _, err := f.Write(buildingHead); err != nil {
		f.Close()
		return nil, fmt.Errorf("container: write meta: %w", err)
	}
	return &Container{root: root, fs: fs, meta: &Meta{State: StateBuilding}, topics: map[string]*Topic{}, metaf: f}, nil
}

// ErrTopicDirMissing refuses the open of a container whose manifest
// names a topic directory the tree lacks. Test with errors.Is.
var ErrTopicDirMissing = errors.New("container: the manifest names a topic directory the tree lacks")

// Open opens an existing container: the cheap structural parse of Fig
// 4b. It reads the manifest and lists the root; it reads no file inside
// a topic directory.
func Open(root string) (*Container, error) {
	meta, err := ReadMeta(root)
	if err != nil {
		return nil, fmt.Errorf("container: %s is not a BORA container: %w", root, err)
	}
	if !meta.Sealed() {
		return nil, fmt.Errorf("container: %s: %w", root, ErrUnsealed)
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	present := make(map[string]bool, len(ents))
	for _, ent := range ents {
		present[ent.Name()] = ent.IsDir()
	}
	c := &Container{root: root, fs: faultfs.OS, meta: meta, topics: make(map[string]*Topic, len(meta.topics))}
	for _, tm := range meta.topics {
		if !present[tm.dir] {
			return nil, fmt.Errorf("container: %s: topic %q in %s: %w", root, tm.conn.Topic, tm.dir, ErrTopicDirMissing)
		}
		c.topics[tm.conn.Topic] = &Topic{dir: filepath.Join(root, tm.dir), topic: tm.conn.Topic, meta: tm}
	}
	return c, nil
}

// Root returns the container's back-end directory.
func (c *Container) Root() string { return c.root }

// Topics returns the sorted topic names present in the container.
func (c *Container) Topics() []string {
	out := make([]string, 0, len(c.topics))
	for t := range c.topics {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Topic returns the named topic, or an error naming the available set.
func (c *Container) Topic(name string) (*Topic, error) {
	t, ok := c.topics[name]
	if !ok {
		return nil, fmt.Errorf("container: no topic %q in %s (have %v)", name, c.root, c.Topics())
	}
	return t, nil
}

// TopicPath returns the back-end path of a topic's sub-directory; this is
// the value stored by the tag manager's hash table.
func (c *Container) TopicPath(name string) (string, error) {
	t, err := c.Topic(name)
	if err != nil {
		return "", err
	}
	return t.dir, nil
}

// TopicOptions tune how a topic is written.
type TopicOptions struct {
	// IndexFlushEvery writes the buffered payloads, then the buffered
	// index entries, every N appends (≤ 0 selects DefaultIndexFlushEvery),
	// so a flushed index never references unwritten data; smaller values
	// shrink the window of messages a crash can lose at the cost of more
	// small writes. A full append buffer or a Flush writes the data
	// sooner, never the index.
	IndexFlushEvery int
	// TimeWindow is the width of the coarse time-index windows the
	// manifest records for the topic, which its readers build the index
	// with (≤ 0 selects timeindex.DefaultWindow).
	TimeWindow time.Duration
}

// DefaultIndexFlushEvery bounds how many appended messages can be
// unindexed (and therefore lost to repair-by-truncation) at a crash.
const DefaultIndexFlushEvery = 256

// CreateTopic adds a topic sub-directory for conn and returns a writer
// for appending its messages. The writer must be closed to persist the
// index.
func (c *Container) CreateTopic(conn *bagio.Connection) (*TopicWriter, error) {
	return c.CreateTopicOpts(conn, TopicOptions{})
}

// CreateTopicOpts is CreateTopic with explicit options.
func (c *Container) CreateTopicOpts(conn *bagio.Connection, opts TopicOptions) (*TopicWriter, error) {
	if _, dup := c.topics[conn.Topic]; dup {
		return nil, fmt.Errorf("container: topic %q already exists", conn.Topic)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.metaf == nil {
		return nil, fmt.Errorf("container: %s is not building", c.root)
	}
	dir := filepath.Join(c.root, EncodeTopicDir(conn.Topic))
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.IndexFlushEvery <= 0 {
		opts.IndexFlushEvery = DefaultIndexFlushEvery
	}
	if opts.TimeWindow <= 0 {
		opts.TimeWindow = timeindex.DefaultWindow
	}
	t := &Topic{dir: dir, topic: conn.Topic, growing: true, loaded: true, indexLoadOp: c.indexLoadOp,
		meta: topicMeta{dir: filepath.Base(dir), conn: conn, window: opts.TimeWindow}}
	// A failed append may leave part of the header: nothing may follow it.
	if _, err := c.metaf.Write(encodeTopic(t.meta)); err != nil {
		c.err = fmt.Errorf("container: append the header of %q to the manifest: %w", conn.Topic, err)
		return nil, c.err
	}
	tw := &TopicWriter{topic: t, fs: c.fs, crc: crc32.New(crcTable),
		flushEvery: opts.IndexFlushEvery, buf: appendBufs.Get().(*[]byte)}
	ixf, err := c.fs.Create(filepath.Join(dir, IndexFileName))
	if err != nil {
		return nil, err
	}
	tw.index = ixf
	if tw.data, err = c.fs.Create(filepath.Join(dir, DataFileName)); err != nil {
		ixf.Close()
		return nil, err
	}
	c.topics[conn.Topic] = t
	return tw, nil
}

// appendBufCap is the capacity of a topic writer's pooled append buffer.
const appendBufCap = 64 << 10

var appendBufs = sync.Pool{New: func() any { b := make([]byte, 0, appendBufCap); return &b }}

// TopicWriter appends messages to one topic of a container — the only
// thing that writes a topic directory. It keeps a running CRC of the
// data stream, which Close hands to the container for its seal to
// record in the manifest. Payloads collect in an append buffer written as one
// block when full, every IndexFlushEvery appends, at Flush and at Close
// (a payload larger than the buffer goes straight through). An index
// entry is published to the topic, and written to the index file, only
// after its bytes are in the data file, so a crash mid-stream leaves a
// consistent indexed prefix for Repair to recover rather than losing
// the whole topic. The encoded entries stay in one append-only buffer:
// its flushed prefix is the topic's index view, and the index file
// receives what it has not yet written; a writer no reader sees before
// the seal (Unshared) keeps only that. A failed write is sticky, as in
// bufio.Writer.
type TopicWriter struct {
	topic *Topic
	fs    faultfs.Backend
	data  faultfs.File
	index faultfs.File

	crc        hash.Hash32
	offset     uint64
	appended   int64 // messages appended
	flushed    int64 // of them, the leading ones whose payloads are in the data file
	flushedOff uint64
	closed     bool
	unshared   bool       // publishes no view: ixbuf restarts at every index write
	err        error      // the first failed write, returned ever after
	last       IndexEntry // entry minted by the most recent Append
	buf        *[]byte    // payloads not yet written to the data file
	ixbuf      []byte     // the entries appended, encoded; published up to the data written
	written    int        // ixbuf[:written] is in the index file
	flushEvery int
}

// Append buffers one message payload and encodes its index entry.
func (tw *TopicWriter) Append(t bagio.Time, payload []byte) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		return fmt.Errorf("container: topic writer for %q is closed", tw.topic.topic)
	}
	if len(*tw.buf)+len(payload) > appendBufCap {
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if len(payload) > appendBufCap {
		if _, err := tw.data.Write(payload); err != nil {
			return tw.fail("append to", err)
		}
	} else {
		*tw.buf = append(*tw.buf, payload...)
	}
	tw.crc.Write(payload)
	e := IndexEntry{
		Time:           t,
		LogicalOffset:  tw.offset,
		Length:         uint32(len(payload)),
		PhysicalOffset: tw.offset,
	}
	tw.appended++
	tw.last = e
	tw.offset += uint64(len(payload))
	n := len(tw.ixbuf)
	tw.ixbuf = append(tw.ixbuf, make([]byte, IndexEntrySize)...)
	e.encode(tw.ixbuf[n:])
	if len(tw.ixbuf)-tw.written >= tw.flushEvery*IndexEntrySize {
		return tw.flushIndex()
	}
	return nil
}

func (tw *TopicWriter) fail(what string, err error) error {
	tw.err = fmt.Errorf("container: %s %q: %w", what, tw.topic.topic, err)
	return tw.err
}

// Flush writes the buffered payloads to the data file and publishes
// their index entries to the topic (Index). The index file follows
// IndexFlushEvery.
func (tw *TopicWriter) Flush() error {
	if tw.err != nil || tw.closed {
		return tw.err
	}
	if len(*tw.buf) > 0 {
		if _, err := tw.data.Write(*tw.buf); err != nil {
			return tw.fail("append to", err)
		}
		*tw.buf = (*tw.buf)[:0]
	}
	tw.flushed, tw.flushedOff = tw.appended, tw.offset
	// Under the topic mutex: a live follower may be taking the view. The
	// writer alone sets it, so it reads its length unlocked; the bytes
	// published are never written again, and an Append that moves the
	// buffer leaves readers the old one.
	if t, n := tw.topic, len(tw.ixbuf); !tw.unshared && n > len(t.ix.b) {
		t.mu.Lock()
		t.ix = IndexView{b: tw.ixbuf[:n:n]}
		t.mu.Unlock()
	}
	return nil
}

// flushIndex writes the buffered payloads, then appends the buffered
// index entries to the index file, so the index on disk never runs
// ahead of the data.
func (tw *TopicWriter) flushIndex() error {
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(tw.ixbuf) == tw.written {
		return nil
	}
	if _, err := tw.index.Write(tw.ixbuf[tw.written:]); err != nil {
		return tw.fail("write index for", err)
	}
	tw.written = len(tw.ixbuf)
	if tw.unshared {
		tw.ixbuf, tw.written = tw.ixbuf[:0], 0
	}
	return nil
}

// Unshared tells the writer that no reader sees its topic before the
// seal (Duplicate opens the sealed container afresh): it publishes no
// index view, and its entry buffer, sized once, holds only what the
// index file has not yet received.
func (tw *TopicWriter) Unshared() {
	tw.unshared = true
	tw.ixbuf = make([]byte, 0, tw.flushEvery*IndexEntrySize)
}

// Flushed reports the messages, and their payload bytes, that reached
// the data file.
func (tw *TopicWriter) Flushed() (messages, bytes int64) {
	return tw.flushed, int64(tw.flushedOff)
}

// Close flushes the data, then the index, in place and unsynced (the
// seal makes them durable), and hands the data's checksum to the
// container for its seal to record: anything the index claims is backed
// by data, and a checksum only exists for a complete topic.
func (tw *TopicWriter) Close() error {
	if tw.closed {
		return tw.err
	}
	err := tw.flushIndex()
	tw.closed = true
	*tw.buf = (*tw.buf)[:0]
	appendBufs.Put(tw.buf)
	if err != nil {
		tw.index.Close()
		tw.data.Close()
		return err
	}
	if err := tw.data.Close(); err != nil {
		tw.index.Close()
		return err
	}
	if err := tw.index.Close(); err != nil {
		return err
	}
	tw.topic.meta.summed, tw.topic.meta.sum, tw.topic.meta.size = true, tw.crc.Sum32(), int64(tw.offset)
	return nil
}

// Grow makes room for entries more index entries, so a writer told its
// topic's length appends them without regrowing its entry buffer.
func (tw *TopicWriter) Grow(entries int) {
	tw.ixbuf = slices.Grow(tw.ixbuf, entries*IndexEntrySize)
}

// LastEntry returns the index entry minted by the most recent Append
// (the zero entry before the first). Live recorders journal it so
// tailing followers can read the message back without re-deriving
// offsets, once a Flush has written it.
func (tw *TopicWriter) LastEntry() IndexEntry { return tw.last }

// Topic returns the topic this writer appends to. A live recorder hands
// it to in-process followers: the topic's in-memory entry list grows as
// appends are flushed, and the data on disk backs every published
// entry.
func (tw *TopicWriter) Topic() *Topic { return tw.topic }

// Name returns the topic name.
func (t *Topic) Name() string { return t.topic }

// Connection returns the topic's connection metadata.
func (t *Topic) Connection() *bagio.Connection { return t.meta.conn }

// Dir returns the topic's back-end directory.
func (t *Topic) Dir() string { return t.dir }

// TimeIndex returns the coarse-grain time index over v, the topic's
// index as the caller loaded it, with the manifest's window: built once
// per handle, again for a view of another length. Callers only query it.
func (t *Topic) TimeIndex(v IndexView) *timeindex.Index {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tix == nil || t.tixOf != v.Len() {
		tix := timeindex.New(t.meta.window)
		for i := 0; i < v.Len(); i++ {
			tix.Add(v.Time(i), uint32(i))
		}
		t.tix, t.tixOf = tix, v.Len()
	}
	return t.tix
}

// DataSize returns the total payload bytes of the topic.
func (t *Topic) DataSize() (int64, error) {
	r, err := openTopicData(t.dir)
	if err != nil {
		return 0, err
	}
	r.Close()
	return int64(r.size), nil
}

// openTopicData opens the data file of the topic directory dir, noting
// its length. Every reader of topic data (queries, fsck, repair) opens
// it here.
func openTopicData(dir string) (dataFile, error) {
	f, err := os.Open(filepath.Join(dir, DataFileName))
	if err != nil {
		return dataFile{}, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return dataFile{}, err
	}
	return dataFile{File: f, size: uint64(st.Size())}, nil
}

// DataReader serves random reads of a topic's logical data stream.
type DataReader interface {
	io.ReaderAt
	io.Closer
}

// sizedReader is a reader that knows how long its data file is, so a
// read can be refused before a buffer is sized from a corrupt entry.
// Every reader OpenData returns is sized.
type sizedReader interface {
	// length returns the file's length, asking the file system again when
	// the length on record is below want: a part still being recorded
	// grows under its readers, and a read cut short asks with MaxUint64.
	length(want uint64) uint64
}

// dataFile is a topic's data file open for reading and its length as
// last asked. One stream reads through it; it is not shared.
type dataFile struct {
	*os.File
	size uint64
}

func (d *dataFile) length(want uint64) uint64 {
	if d.size < want {
		// Seek rather than Stat: the same answer without a FileInfo
		// allocated per wake-up of a Follow tail. Every read is a ReadAt,
		// so the offset this moves is nobody's.
		if end, err := d.Seek(0, io.SeekEnd); err == nil {
			d.size = uint64(end)
		}
	}
	return d.size
}

// OpenData opens the topic's contiguous logical data stream for
// reading. A sealed part is mapped: a pooled handle's (MapData) one
// shared mapping, else a mapping for this reader alone, unmapped by its
// Close. A block-cache reader serves a container that carries a cache,
// and the file itself a part being written or one mmap refuses. Every
// reader is read the same way, in runs of adjacent entries
// (ReadExtentInto); only container knows which one it handed out.
func (t *Topic) OpenData() (DataReader, error) {
	if t.mapped || t.cache == nil && !t.growing {
		if m := t.mapData(); m != nil {
			return m, nil
		}
	}
	r, err := openTopicData(t.dir)
	if err != nil {
		return nil, err
	}
	if t.cache == nil {
		return &r, nil
	}
	return &cachedReader{inner: r, cache: t.cache, path: t.dir, gen: t.gen}, nil
}

// ErrIndexBeyondData reports an index entry whose payload does not lie
// inside the topic's data file: a corrupt index, or data truncated
// under a good one. Test with errors.Is.
var ErrIndexBeyondData = errors.New("index entry lies beyond the topic's data")

// end is the offset just past the entry's payload, saturating where a
// corrupt entry's would overflow.
func (e IndexEntry) end() uint64 {
	end := e.PhysicalOffset + uint64(e.Length)
	if end < e.PhysicalOffset {
		return math.MaxUint64
	}
	return end
}

// bound refuses to read e through r when the data file ends before e
// does, naming the entry. The ordinal is looked up only here, on the
// error path (-1: not one of the topic's entries).
func (t *Topic) bound(r io.ReaderAt, e IndexEntry) (size uint64, err error) {
	s, ok := r.(sizedReader)
	if !ok {
		return math.MaxUint64, nil
	}
	if size = s.length(e.end()); size >= e.end() {
		return size, nil
	}
	return size, fmt.Errorf("container: topic %q entry %d (offset %d, length %d) in %d bytes of data: %w",
		t.topic, t.ordinal(e), e.PhysicalOffset, e.Length, size, ErrIndexBeyondData)
}

// ReadMessageInto reads the payload for one index entry without
// allocating per message: ReadExtentInto of that one entry. Through a
// mapping, or a block cache whose block holds the whole payload, a slice
// is returned and scratch is untouched; otherwise the payload is read
// into *scratch, growing it once to the topic's largest message.
//
// Either way the returned bytes are READ-ONLY and only valid until the
// next call with the same reader or scratch, and until the reader is
// closed — exactly the lifetime core.MessageRef hands to query
// callbacks. Callers that keep the payload must copy it. It records
// nothing itself — even an untimed atomic add per message is measurable
// against a page-cache hit — so streaming callers batch their totals
// into NoteReads when a read loop finishes.
func (t *Topic) ReadMessageInto(r io.ReaderAt, e IndexEntry, scratch *[]byte) ([]byte, error) {
	var one [IndexEntrySize]byte
	e.encode(one[:])
	data, _, err := t.ReadExtentInto(r, IndexView{b: one[:]}, scratch)
	return data, err
}

// extentCap bounds one coalesced read, and so the scratch a stream holds
// for it. Chosen by measurement (benchmark workload scan_small — cold
// open and full scan of five topics of 40–345 B messages — four runs per
// value, medians): 32 KiB 17.9 M msg/s, 64 KiB 19.1 M, 128 KiB 19.4 M,
// 256 KiB 19.8 M, against 2.1 M reading a message at a time; peak RSS
// 23.1 / 23.3 / 23.9 / 24.8 MB. 64 KiB takes 97 % of the largest's
// throughput at the smallest's memory.
const extentCap = 64 << 10

// extentRun plans one read over the head of sel: how many entries it
// covers (at least the head, whatever its size — a message larger than
// the cap is read alone) and how many bytes. The run extends over the
// following entries for as long as each starts exactly where the
// previous one ends, ends inside the first size bytes of the file, and
// keeps the total within extentCap. Adjacency only: a gap byte is never
// read, so a strided or sparse selection plans one message per read.
func extentRun(sel IndexView, size uint64) (k, n int) {
	head := sel.At(0)
	next, n := head.end(), int(head.Length)
	for k = 1; k < sel.Len(); k++ {
		e := sel.At(k)
		if e.PhysicalOffset != next || e.end() > size || n+int(e.Length) > extentCap {
			break
		}
		next, n = e.end(), n+int(e.Length)
	}
	return k, n
}

// ReadExtentInto reads the leading run of sel (see extentRun) and
// returns the bytes and how many entries they hold, k ≥ 1: entry i's
// payload is buf[sel.At(i).PhysicalOffset-sel.At(0).PhysicalOffset:][:sel.At(i).Length].
// The caller comes back with sel.Slice(k, sel.Len()). Every reader is
// read in runs: a mapping as one slice of it (a run that reaches its
// last page copied into *scratch, see Guard); a plain file with one
// ReadAt into *scratch; a block-cache reader as one slice of the head's
// cached block, the run ending where that block does (a head that
// straddles two blocks, or a block cut short, is read alone, copied
// through the cache's ReadAt).
//
// Every read is bounded by the data file's length before a buffer is
// sized from an entry: a head entry that ends past the file fails with
// ErrIndexBeyondData and allocates nothing. A read that stops early
// (the file shrank, a device error) still returns the messages wholly
// inside what arrived; the error surfaces on the call that has the
// first incomplete message as its head, so a damaged file delivers
// exactly the prefix a message-at-a-time reader would; a file cut after
// it was opened is the same ErrIndexBeyondData. A mapping is measured
// when a query opens it; a cut during the query is for Guard to find.
//
// The bytes are READ-ONLY and valid until the next call with the same
// reader or scratch, like ReadMessageInto's.
func (t *Topic) ReadExtentInto(r io.ReaderAt, sel IndexView, scratch *[]byte) ([]byte, int, error) {
	head := sel.At(0)
	size, err := t.bound(r, head)
	if err != nil {
		return nil, 0, err
	}
	if m, ok := r.(*mapping); ok {
		k, n := extentRun(sel, size)
		if hi := head.PhysicalOffset + uint64(n); hi <= m.lastPage() {
			return m.data[head.PhysicalOffset:hi:hi], k, nil
		}
		return t.readTail(m, sel, size, scratch)
	}
	if c, ok := r.(*cachedReader); ok {
		if data, k := c.run(sel, size); k > 0 {
			return data, k, nil
		}
		sel = sel.Slice(0, 1) // copy the head alone: its neighbours are slices of the next block
	}
	return t.readExtent(r, sel, size, scratch)
}

// readExtent is ReadExtentInto through ReadAt: plan the run against the
// file's size, size the scratch, read. It is a function of its own so
// that a slice of a mapping or a cached block, the hot path, pays for
// none of this one's frame.
func (t *Topic) readExtent(r io.ReaderAt, sel IndexView, size uint64, scratch *[]byte) ([]byte, int, error) {
	head := sel.At(0)
	k, n := extentRun(sel, size)
	if cap(*scratch) < n {
		*scratch = make([]byte, n, growCap(n, size))
	}
	buf := (*scratch)[:n]
	if got, err := r.ReadAt(buf, int64(head.PhysicalOffset)); err != nil {
		if k = whole(sel, k, head.PhysicalOffset+uint64(got)); k == 0 {
			if s, ok := r.(sizedReader); ok && s.length(math.MaxUint64) < head.end() {
				_, err = t.bound(r, head) // the file was cut under the read
				return nil, 0, err
			}
			return nil, 0, fmt.Errorf("container: read message of %q at %d: %w", t.topic, head.PhysicalOffset, err)
		}
	}
	return buf, k, nil
}

// whole is how many of sel's first k entries end at or before file
// offset end.
func whole(sel IndexView, k int, end uint64) int {
	n := 0
	for n < k && sel.At(n).end() <= end {
		n++
	}
	return n
}

// growCap rounds a scratch-buffer size up so a stream of slightly
// growing messages settles after a few reallocations instead of
// reallocating per message — but never past limit, the data file's
// length: no buffer outgrows the data it could ever hold.
func growCap(n int, limit uint64) int {
	c := 4 << 10
	for c < n {
		c *= 2
	}
	if uint64(c) > limit {
		c = max(n, int(limit))
	}
	return c
}
