// Package container implements the BORA container structure (Fig 5b of
// the paper): for each logical bag, a root directory on the underlying
// file system holding one sub-directory per topic. A topic sub-directory
// stores the topic's message payloads as one large contiguous data file,
// a fixed-width index file (timestamp, logical offset, length, physical
// pointer), the connection metadata, and the coarse-grain time index.
//
// Because topic data is aggregated into per-topic files during the
// one-time duplication step, a later query by topic becomes a whole-file
// sequential read and a query by time range a window-bounded read —
// the data layout property all of BORA's gains derive from.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bagio"
	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/timeindex"
)

// File names inside a topic sub-directory.
const (
	DataFileName    = "data"
	IndexFileName   = "index"
	ConnFileName    = "conn"
	TimeIdxFileName = "timeidx"
	MetaFileName    = ".bora_meta"
)

// IndexEntrySize is the fixed on-disk width of one index entry:
// sec u32, nsec u32, logical offset u64, length u32, physical offset u64.
const IndexEntrySize = 4 + 4 + 8 + 4 + 8

// IndexEntry locates one message of a topic. LogicalOffset is the byte
// offset within the topic's logical stream; PhysicalOffset points into
// the topic data file (they coincide for the local POSIX back end but
// differ when a back end relocates data).
type IndexEntry struct {
	Time           bagio.Time
	LogicalOffset  uint64
	Length         uint32
	PhysicalOffset uint64
}

func (e IndexEntry) encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], e.Time.Sec)
	binary.LittleEndian.PutUint32(dst[4:8], e.Time.NSec)
	binary.LittleEndian.PutUint64(dst[8:16], e.LogicalOffset)
	binary.LittleEndian.PutUint32(dst[16:20], e.Length)
	binary.LittleEndian.PutUint64(dst[20:28], e.PhysicalOffset)
}

func decodeIndexEntry(src []byte) IndexEntry {
	return IndexEntry{
		Time:           bagio.Time{Sec: binary.LittleEndian.Uint32(src[0:4]), NSec: binary.LittleEndian.Uint32(src[4:8])},
		LogicalOffset:  binary.LittleEndian.Uint64(src[8:16]),
		Length:         binary.LittleEndian.Uint32(src[16:20]),
		PhysicalOffset: binary.LittleEndian.Uint64(src[20:28]),
	}
}

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

// encodeConn renders a topic's conn file: every bagio.Connection field
// as one header (optional fields add no bytes when unset).
func encodeConn(conn *bagio.Connection) []byte {
	h := make(bagio.Header)
	h.PutU32("conn", conn.ID)
	h.PutString("topic", conn.Topic)
	h.PutString("type", conn.Type)
	h.PutString("md5sum", conn.MD5Sum)
	h.PutString("message_definition", conn.Def)
	if conn.Caller != "" {
		h.PutString("callerid", conn.Caller)
	}
	if conn.Latch {
		h.PutString("latching", "1")
	}
	return h.Encode()
}

// ErrStripedLayout refuses a topic directory whose conn file declares
// stripes > 1: an older build spread such a topic's data across lane
// files, a layout this build neither reads nor repairs. Test with
// errors.Is.
var ErrStripedLayout = errors.New("striped topic data (written by an older build) is not supported")

// readConn loads and decodes dir's conn file — the inverse of
// encodeConn. The file is a connection record flattened into one
// header: the record's own fields (conn, topic) beside its connection
// header's, so bagio's record decoder reads every field it knows.
func readConn(dir string) (*bagio.Connection, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ConnFileName))
	if err != nil {
		return nil, err
	}
	h, err := bagio.DecodeHeader(buf)
	if err != nil {
		return nil, fmt.Errorf("conn file: %w", err)
	}
	if n, err := h.U32("stripes"); err == nil && n > 1 {
		return nil, fmt.Errorf("conn file: %d lanes: %w", n, ErrStripedLayout)
	}
	conn, err := bagio.DecodeConnection(&bagio.Record{Header: h, Data: buf})
	if err != nil {
		return nil, fmt.Errorf("conn file: %w", err)
	}
	return conn, nil
}

// Container is an open BORA container rooted at a back-end directory.
type Container struct {
	root   string
	fs     faultfs.Backend   // write path: every mutation goes through it
	meta   *Meta             // parsed meta as of Open/Create/Seal
	topics map[string]*Topic // keyed by topic name

	indexLoadOp *obs.Op // container.index_load: lazy index-file parses
	readOp      *obs.Op // container.read: per-message payload reads
	blockFillOp *obs.Op // container.block_fill: block-cache miss reads

	blockCache BlockCache // nil: topic data reads go straight to disk
}

// SetObs routes the container's metrics (index loads, per-message data
// reads, block-cache miss fills) to reg; existing and later-created
// topics inherit it. A nil registry (the default) disables recording.
func (c *Container) SetObs(reg *obs.Registry) {
	c.indexLoadOp = reg.Op("container.index_load")
	c.readOp = reg.Op("container.read")
	c.blockFillOp = reg.Op("container.block_fill")
	for _, t := range c.topics {
		t.indexLoadOp = c.indexLoadOp
		t.blockFillOp = c.blockFillOp
	}
}

// Generation returns the container's sealed generation (0 for a
// still-building or legacy v1 container). Every Seal — first build,
// repair, rebuild under the same name — mints a distinct value, so two
// equal generations always describe the same on-disk tree.
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
// reads direct.
func (c *Container) SetBlockCache(bc BlockCache) {
	for _, t := range c.topics {
		t.cache = bc
		t.gen = c.Generation()
	}
	c.blockCache = bc
}

// NoteReads records a batch of message payload reads under
// container.read. Read loops accumulate locally and flush once per
// stream so the per-message hot path stays free of atomics.
func (c *Container) NoteReads(n, bytes int64) {
	c.readOp.Add(n, bytes)
}

// Topic is one topic sub-directory of a container. Topics are safe for
// concurrent readers: the lazy index load is guarded by a mutex.
type Topic struct {
	dir   string
	topic string
	conn  *bagio.Connection
	cache BlockCache // nil: OpenData reads straight from disk
	gen   uint64     // container generation baked into cache keys

	indexLoadOp *obs.Op
	blockFillOp *obs.Op

	mu      sync.Mutex
	entries []IndexEntry
	loaded  bool             // entries read from the index file
	tix     *timeindex.Index // memoized TimeIndex (loaded, rebuilt, or the closed writer's)

	trLoaded       bool // memoized TimeRange below is valid
	trStart, trEnd bagio.Time
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
	m := &Meta{Version: 2, State: StateBuilding}
	if err := writeMeta(fs, root, m); err != nil {
		return nil, err
	}
	return &Container{root: root, fs: fs, meta: m, topics: map[string]*Topic{}}, nil
}

// Open opens an existing container, discovering topic sub-directories.
// This is the cheap structural parse BORA performs on open (Fig 4b): it
// lists the directory and reads only the small per-topic connection
// files — it does not touch data or index files.
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
	c := &Container{root: root, fs: faultfs.OS, meta: meta, topics: map[string]*Topic{}}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(root, ent.Name())
		conn, err := readConn(dir)
		if err != nil {
			return nil, fmt.Errorf("container: topic dir %s: %w", ent.Name(), err)
		}
		c.topics[conn.Topic] = &Topic{dir: dir, topic: conn.Topic, conn: conn}
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
	// IndexFlushEvery persists buffered index entries to the index file
	// after every N appends (≤ 0 selects DefaultIndexFlushEvery). The
	// data payload is always written before its entry is flushed, so a
	// flushed index never references unwritten data; smaller values
	// shrink the window of messages a crash can lose at the cost of
	// more small writes.
	IndexFlushEvery int
	// TimeWindow is the width of the coarse time-index windows the
	// writer builds as it appends (≤ 0 selects timeindex.DefaultWindow).
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
	dir := filepath.Join(c.root, EncodeTopicDir(conn.Topic))
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.IndexFlushEvery <= 0 {
		opts.IndexFlushEvery = DefaultIndexFlushEvery
	}
	if err := faultfs.WriteFileAtomic(c.fs, filepath.Join(dir, ConnFileName), encodeConn(conn), 0o644); err != nil {
		return nil, err
	}
	t := &Topic{dir: dir, topic: conn.Topic, conn: conn, loaded: true,
		cache: c.blockCache, gen: c.Generation(),
		indexLoadOp: c.indexLoadOp, blockFillOp: c.blockFillOp}
	tw := &TopicWriter{topic: t, fs: c.fs, crc: crc32.New(crcTable),
		flushEvery: opts.IndexFlushEvery, tix: timeindex.New(opts.TimeWindow)}
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

// TopicWriter appends messages to one topic of a container — the only
// thing that writes a topic directory. It keeps a running CRC of the
// data stream and builds the coarse time index as it goes; Close
// persists both. Index entries are flushed to the index file
// incrementally (after the data they reference, never before), so a
// crash mid-stream leaves a consistent indexed prefix for Repair to
// recover rather than losing the whole topic.
type TopicWriter struct {
	topic *Topic
	fs    faultfs.Backend
	data  faultfs.File
	index faultfs.File

	crc        hash.Hash32
	tix        *timeindex.Index // coarse time index, persisted at Close
	offset     uint64
	closed     bool
	last       IndexEntry // entry minted by the most recent Append
	ixbuf      []byte     // encoded entries not yet written to the index file
	pending    int        // entries in ixbuf
	flushEvery int
}

// Append writes one message payload and records its index entry.
func (tw *TopicWriter) Append(t bagio.Time, payload []byte) error {
	if tw.closed {
		return fmt.Errorf("container: topic writer for %q is closed", tw.topic.topic)
	}
	if _, err := tw.data.Write(payload); err != nil {
		return fmt.Errorf("container: append to %q: %w", tw.topic.topic, err)
	}
	tw.crc.Write(payload)
	e := IndexEntry{
		Time:           t,
		LogicalOffset:  tw.offset,
		Length:         uint32(len(payload)),
		PhysicalOffset: tw.offset,
	}
	// The in-memory entry list is published under the topic mutex: a
	// live follower may be snapshotting Entries() of this still-building
	// topic concurrently (the payload bytes above are already on disk,
	// so anything the published entry describes is readable).
	tw.topic.mu.Lock()
	ordinal := len(tw.topic.entries)
	tw.topic.entries = append(tw.topic.entries, e)
	tw.topic.mu.Unlock()
	tw.tix.Add(t, uint32(ordinal))
	tw.last = e
	tw.offset += uint64(len(payload))
	n := len(tw.ixbuf)
	tw.ixbuf = append(tw.ixbuf, make([]byte, IndexEntrySize)...)
	e.encode(tw.ixbuf[n:])
	tw.pending++
	if tw.pending >= tw.flushEvery {
		return tw.flushIndex()
	}
	return nil
}

// flushIndex appends the buffered index entries to the index file. Every
// payload those entries describe has already been written, so the index
// on disk never runs ahead of the data.
func (tw *TopicWriter) flushIndex() error {
	if tw.pending == 0 {
		return nil
	}
	if _, err := tw.index.Write(tw.ixbuf); err != nil {
		return fmt.Errorf("container: write index for %q: %w", tw.topic.topic, err)
	}
	tw.ixbuf = tw.ixbuf[:0]
	tw.pending = 0
	return nil
}

// Close flushes and syncs the data and index files and persists the
// checksum record, then the coarse time index. The order (data, then
// index, then checksum, then the rebuildable time index) matches the
// recovery invariant fsck assumes: anything the index claims is backed
// by data, and a checksum only exists for a complete topic.
func (tw *TopicWriter) Close() error {
	if tw.closed {
		return nil
	}
	tw.closed = true
	if err := tw.flushIndex(); err != nil {
		tw.index.Close()
		tw.data.Close()
		return err
	}
	if err := tw.data.Sync(); err != nil {
		tw.data.Close()
		tw.index.Close()
		return err
	}
	if err := tw.data.Close(); err != nil {
		tw.index.Close()
		return err
	}
	if err := tw.index.Sync(); err != nil {
		tw.index.Close()
		return err
	}
	if err := tw.index.Close(); err != nil {
		return err
	}
	if err := writeChecksum(tw.fs, tw.topic.dir, tw.crc.Sum32(), int64(tw.offset)); err != nil {
		return err
	}
	if err := writeTimeIndex(tw.fs, tw.topic.dir, tw.tix); err != nil {
		return err
	}
	// The index is final: this handle's TimeIndex serves it from memory.
	tw.topic.mu.Lock()
	tw.topic.tix = tw.tix
	tw.topic.mu.Unlock()
	return nil
}

// LastEntry returns the index entry minted by the most recent Append
// (the zero entry before the first). Live recorders journal it so
// tailing followers can read the message back without re-deriving
// offsets.
func (tw *TopicWriter) LastEntry() IndexEntry { return tw.last }

// Topic returns the topic this writer appends to. A live recorder hands
// it to in-process followers: the topic's in-memory entry list grows as
// messages are appended, and the data already on disk backs every
// published entry.
func (tw *TopicWriter) Topic() *Topic { return tw.topic }

// Name returns the topic name.
func (t *Topic) Name() string { return t.topic }

// Connection returns the topic's connection metadata.
func (t *Topic) Connection() *bagio.Connection { return t.conn }

// Dir returns the topic's back-end directory.
func (t *Topic) Dir() string { return t.dir }

// Entries loads (once) and returns the topic's index entries in append
// order, which is timestamp order for bags recorded chronologically.
// The returned slice is shared; callers must not mutate it.
func (t *Topic) Entries() ([]IndexEntry, error) {
	return t.EntriesSpan(obs.Span{})
}

// EntriesSpan is Entries with the (first) index-file load recorded as a
// container.index_load child of parent; cache hits record nothing. A
// zero parent traces the load as a root span.
func (t *Topic) EntriesSpan(parent obs.Span) ([]IndexEntry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entriesLocked(parent)
}

func (t *Topic) entriesLocked(parent obs.Span) ([]IndexEntry, error) {
	if t.loaded {
		return t.entries, nil
	}
	sp := parent.ChildOp(t.indexLoadOp)
	entries, err := readIndex(filepath.Join(t.dir, IndexFileName))
	if err != nil {
		err = fmt.Errorf("container: index of %q: %w", t.topic, err)
		sp.EndErr(err)
		return nil, err
	}
	t.entries, t.loaded = entries, true
	sp.EndBytes(int64(len(entries)) * IndexEntrySize)
	return t.entries, nil
}

// indexChunk is how many entries readIndex decodes per read: 28 KiB of
// file at a time, on the stack.
const indexChunk = 1024

// readIndex decodes an index file straight into the entry slice it
// returns, through a fixed chunk: the only garbage a cold open's index
// load leaves is the entries themselves (a whole-file read beside them
// doubled it, once per topic per open).
func readIndex(path string) ([]IndexEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size()%IndexEntrySize != 0 {
		return nil, fmt.Errorf("%d bytes, not a multiple of %d", st.Size(), IndexEntrySize)
	}
	entries := make([]IndexEntry, st.Size()/IndexEntrySize)
	var chunk [indexChunk * IndexEntrySize]byte
	for done := 0; done < len(entries); {
		buf := chunk[:min(len(entries)-done, indexChunk)*IndexEntrySize]
		if n, err := f.ReadAt(buf, int64(done)*IndexEntrySize); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the file shrank under the load
			}
			return nil, fmt.Errorf("read at entry %d of %d stopped after %d bytes: %w", done, len(entries), n, err)
		}
		for ; len(buf) > 0; buf, done = buf[IndexEntrySize:], done+1 {
			entries[done] = decodeIndexEntry(buf)
		}
	}
	return entries, nil
}

// TimeIndex returns the coarse-grain time index of a complete topic,
// loaded from the timeidx file once per handle and served from memory
// afterwards. A topic without the file (a container built by an older
// tool) gets the index rebuilt from its entries; a file that is present
// but does not parse is an error. The index is shared: callers only
// query it.
func (t *Topic) TimeIndex() (*timeindex.Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tix != nil {
		return t.tix, nil
	}
	tix, err := readTimeIndex(t.dir)
	if os.IsNotExist(err) {
		var entries []IndexEntry
		if entries, err = t.entriesLocked(obs.Span{}); err == nil {
			tix = buildTimeIndex(0, entries)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("container: time index of %q: %w", t.topic, err)
	}
	t.tix = tix
	return tix, nil
}

// readTimeIndex loads dir's persisted coarse time index.
func readTimeIndex(dir string) (*timeindex.Index, error) {
	buf, err := os.ReadFile(filepath.Join(dir, TimeIdxFileName))
	if err != nil {
		return nil, err
	}
	return timeindex.Unmarshal(buf)
}

// writeTimeIndex persists tix as dir's timeidx file, atomically.
func writeTimeIndex(fs faultfs.Backend, dir string, tix *timeindex.Index) error {
	return faultfs.WriteFileAtomic(fs, filepath.Join(dir, TimeIdxFileName), tix.Marshal(), 0o644)
}

// buildTimeIndex derives the coarse time index from a topic's entries:
// what TopicWriter accumulates append by append, recomputed for a topic
// whose file is missing or being repaired.
func buildTimeIndex(window time.Duration, entries []IndexEntry) *timeindex.Index {
	tix := timeindex.New(window)
	for i, e := range entries {
		tix.Add(e.Time, uint32(i))
	}
	return tix
}

// MessageCount returns the number of indexed messages.
func (t *Topic) MessageCount() (int, error) {
	es, err := t.Entries()
	if err != nil {
		return 0, err
	}
	return len(es), nil
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
// its length. Every reader of topic data (queries, Verify, fsck,
// repair) opens it here.
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
// Both readers OpenData returns are sized.
type sizedReader interface {
	// length returns the file's length, asking the file system again when
	// the length on record is below want: a part still being recorded
	// grows under its readers.
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
// reading. When the container carries a block cache the returned reader
// serves cache hits from memory and fills misses block-by-block from
// the file.
func (t *Topic) OpenData() (DataReader, error) {
	return t.OpenDataQ(nil)
}

// OpenDataQ is OpenData with the reader's block-cache traffic (hits,
// misses, miss fill time) charged to aq. A nil aq leaves the reads
// unattributed; per-access charging is nil-safe, so this costs the
// uncharged path nothing.
//
// Which reader comes back also decides, once per open, how
// ReadExtentInto reads through it: a plain file takes coalesced
// extents, a block-cache reader (a ZeroCopyReader) one message at a
// time, since its fills already are block-sized extents.
func (t *Topic) OpenDataQ(aq *obs.ActiveQuery) (DataReader, error) {
	r, err := openTopicData(t.dir)
	if err != nil {
		return nil, err
	}
	if t.cache == nil {
		return &r, nil
	}
	return &cachedReader{inner: r, cache: t.cache, path: t.dir, gen: t.gen, fillOp: t.blockFillOp, aq: aq}, nil
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
// error path (-1: not one of the topic's loaded entries).
func (t *Topic) bound(r io.ReaderAt, e IndexEntry) (size uint64, err error) {
	s, ok := r.(sizedReader)
	if !ok {
		return math.MaxUint64, nil
	}
	if size = s.length(e.end()); size >= e.end() {
		return size, nil
	}
	ord := -1
	t.mu.Lock()
	for i := range t.entries {
		if t.entries[i] == e {
			ord = i
			break
		}
	}
	t.mu.Unlock()
	return size, fmt.Errorf("container: topic %q entry %d (offset %d, length %d) in %d bytes of data: %w",
		t.topic, ord, e.PhysicalOffset, e.Length, size, ErrIndexBeyondData)
}

// ReadMessageInto reads the payload for one index entry without
// allocating per message: ReadExtentInto of that one entry. When r can
// serve the read as a direct slice of an internal buffer (a block-cache
// hit, see ZeroCopyReader) that slice is returned and scratch is
// untouched; otherwise the payload is read into *scratch, growing it
// once to the topic's largest message.
//
// Either way the returned bytes are READ-ONLY and only valid until the
// next call with the same reader or scratch — exactly the lifetime
// core.MessageRef hands to query callbacks. Callers that keep the
// payload must copy it. It records nothing itself — even an untimed
// atomic add per message is measurable against a page-cache hit — so
// streaming callers batch their totals into NoteReads when a read loop
// finishes.
func (t *Topic) ReadMessageInto(r io.ReaderAt, e IndexEntry, scratch *[]byte) ([]byte, error) {
	entries := [1]IndexEntry{e}
	data, _, err := t.ReadExtentInto(r, entries[:], scratch)
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

// extentRun plans one read over the head of entries: how many entries
// it covers (at least the head, whatever its size — a message larger
// than the cap is read alone) and how many bytes. The run extends over
// the following entries for as long as each starts exactly where the
// previous one ends, ends inside the first size bytes of the file, and
// keeps the total within extentCap. Adjacency only: a gap byte is never
// read, so a strided or sparse selection plans one message per read.
func extentRun(entries []IndexEntry, size uint64) (k, n int) {
	head := entries[0]
	next, n := head.end(), int(head.Length)
	for k = 1; k < len(entries); k++ {
		e := entries[k]
		if e.PhysicalOffset != next || e.end() > size || n+int(e.Length) > extentCap {
			break
		}
		next, n = e.end(), n+int(e.Length)
	}
	return k, n
}

// ReadExtentInto reads the leading run of entries (see extentRun) with
// one ReadAt and returns the bytes and how many entries they hold, k ≥ 1:
// entry i's payload is buf[entries[i].PhysicalOffset-entries[0].PhysicalOffset:][:entries[i].Length].
// The caller comes back with entries[k:]. Only a plain file is read in
// runs; through a block cache (ZeroCopyReader) the head entry is served
// alone, as a direct slice of its cached block when it lies in one.
//
// Every read is bounded by the data file's length before a buffer is
// sized from an entry: a head entry that ends past the file fails with
// ErrIndexBeyondData and allocates nothing. A read that stops early
// (the file shrank, a device error) still returns the messages wholly
// inside what arrived; the error surfaces on the call that has the
// first incomplete message as its head, so a damaged file delivers
// exactly the prefix a message-at-a-time reader would.
//
// The bytes are READ-ONLY and valid until the next call with the same
// reader or scratch, like ReadMessageInto's.
func (t *Topic) ReadExtentInto(r io.ReaderAt, entries []IndexEntry, scratch *[]byte) ([]byte, int, error) {
	zc, cached := r.(ZeroCopyReader)
	if cached {
		if data, ok := zc.ReadSlice(int64(entries[0].PhysicalOffset), int(entries[0].Length)); ok {
			return data, 1, nil
		}
	}
	return t.readExtent(r, entries, !cached, scratch)
}

// readExtent is ReadExtentInto past the block cache: bound, plan (a run
// when runs is set, else the head alone), size the scratch, ReadAt. It
// is a function of its own so that a cache hit, the per-message hot path
// of every pooled query, pays for none of this one's frame.
func (t *Topic) readExtent(r io.ReaderAt, entries []IndexEntry, runs bool, scratch *[]byte) ([]byte, int, error) {
	head := entries[0]
	size, err := t.bound(r, head)
	if err != nil {
		return nil, 0, err
	}
	k, n := 1, int(head.Length)
	if runs && len(entries) > 1 {
		k, n = extentRun(entries, size)
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n, growCap(n, size))
	}
	buf := (*scratch)[:n]
	if got, err := r.ReadAt(buf, int64(head.PhysicalOffset)); err != nil {
		whole := 0
		for whole < k && entries[whole].end()-head.PhysicalOffset <= uint64(got) {
			whole++
		}
		if k = whole; k == 0 {
			return nil, 0, fmt.Errorf("container: read message of %q at %d: %w", t.topic, head.PhysicalOffset, err)
		}
	}
	return buf, k, nil
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

// TimeRange returns the first and last message timestamps of the topic,
// scanning the index once per open handle and serving from memory
// afterwards (repeated windowed queries consult it per call).
func (t *Topic) TimeRange() (start, end bagio.Time, err error) {
	es, err := t.Entries()
	if err != nil || len(es) == 0 {
		return bagio.Time{}, bagio.Time{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.trLoaded {
		return t.trStart, t.trEnd, nil
	}
	start, end = es[0].Time, es[0].Time
	for _, e := range es[1:] {
		if e.Time.Before(start) {
			start = e.Time
		}
		if end.Before(e.Time) {
			end = e.Time
		}
	}
	t.trStart, t.trEnd, t.trLoaded = start, end, true
	return start, end, nil
}
