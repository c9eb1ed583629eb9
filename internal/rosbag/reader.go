package rosbag

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bagio"
	"repro/internal/obs"
)

// Stats counts the I/O-relevant operations performed by a Reader; the
// evaluation harness uses them to validate the cost model in
// internal/pathsim against real access paths.
type Stats struct {
	Seeks             int   // repositioning operations
	BytesRead         int64 // payload bytes read from the underlying file
	ChunkInfosScanned int   // chunk-info records traversed during open
	ChunksRead        int   // chunk records decompressed during queries
	IndexRecordsRead  int   // index-data records parsed during queries
	MessagesScanned   int   // index entries merge-sorted for queries
}

// Reader reads a bag using the stock rosbag access path: Open traverses
// the full chunk-info list; queries read per-chunk index records and
// merge-sort the matching entries before seeking to each message.
type Reader struct {
	r    io.ReaderAt
	size int64

	header     *bagio.BagHeader
	conns      map[uint32]*bagio.Connection
	connsOrder []*bagio.Connection
	chunkInfos []*bagio.ChunkInfo
	stats      Stats
	readOp     *obs.Op // rosbag.read: baseline query latency/bytes
}

// MessageRef is one message yielded by ReadMessages. Data is only valid
// for the duration of the callback.
type MessageRef struct {
	Conn *bagio.Connection
	Time bagio.Time
	Data []byte
}

// Query selects messages by topic and receive-time range. A nil or empty
// Topics slice selects all topics. Start/End are inclusive; zero values
// select the whole time axis.
type Query struct {
	Topics []string
	Start  bagio.Time
	End    bagio.Time
}

func (q *Query) normalize() (map[string]bool, bagio.Time, bagio.Time) {
	var topicSet map[string]bool
	if len(q.Topics) > 0 {
		topicSet = make(map[string]bool, len(q.Topics))
		for _, t := range q.Topics {
			topicSet[t] = true
		}
	}
	start, end := q.Start, q.End
	if end.IsZero() {
		end = bagio.MaxTime
	}
	return topicSet, start, end
}

// OpenReader performs the traditional bag open on an arbitrary source:
// read the bag header, seek to the index section, read every connection
// record and traverse the complete chunk-info list (Fig 4a of the paper).
func OpenReader(r io.ReaderAt, size int64) (*Reader, error) {
	return OpenReaderObs(r, size, nil)
}

// OpenReaderObs is OpenReader recording the baseline access path to reg
// (rosbag.open, rosbag.read ops), so baseline-vs-BORA comparisons come
// from the same instrument. A nil registry disables recording.
func OpenReaderObs(r io.ReaderAt, size int64, reg *obs.Registry) (*Reader, error) {
	sp := reg.Op("rosbag.open").Start()
	br, err := openReader(r, size)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	sp.EndBytes(br.stats.BytesRead)
	br.readOp = reg.Op("rosbag.read")
	return br, nil
}

func openReader(r io.ReaderAt, size int64) (*Reader, error) {
	sc := bagio.NewRecordScanner(io.NewSectionReader(r, 0, size))
	br := &Reader{r: r, size: size, conns: map[uint32]*bagio.Connection{}}
	if err := sc.ReadMagic(); err != nil {
		return nil, err
	}
	rec, err := sc.ReadRecord()
	if err != nil {
		return nil, fmt.Errorf("rosbag: read bag header: %w", err)
	}
	op, err := rec.Op()
	if err != nil {
		return nil, err
	}
	if op != bagio.OpBagHeader {
		return nil, fmt.Errorf("rosbag: first record has op %#x, want bag header", op)
	}
	br.header, err = bagio.DecodeBagHeader(rec)
	if err != nil {
		return nil, err
	}
	br.stats.BytesRead += int64(len(bagio.Magic)) + bagio.BagHeaderLen
	if br.header.IndexPos == 0 {
		return nil, fmt.Errorf("rosbag: bag was not closed (index_pos is 0); reindexing unsupported")
	}
	if br.header.IndexPos > uint64(size) {
		return nil, fmt.Errorf("rosbag: index_pos %d beyond file size %d", br.header.IndexPos, size)
	}

	// Seek to the index section and traverse it completely.
	br.seek(sc, br.header.IndexPos)
	for {
		rec, err := sc.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("rosbag: index section: %w", err)
		}
		op, err := rec.Op()
		if err != nil {
			return nil, err
		}
		switch op {
		case bagio.OpConnection:
			c, err := bagio.DecodeConnection(rec)
			if err != nil {
				return nil, err
			}
			if _, dup := br.conns[c.ID]; !dup {
				br.conns[c.ID] = c
				br.connsOrder = append(br.connsOrder, c)
			}
		case bagio.OpChunkInfo:
			ci, err := bagio.DecodeChunkInfo(rec)
			if err != nil {
				return nil, err
			}
			br.chunkInfos = append(br.chunkInfos, ci)
			br.stats.ChunkInfosScanned++
		default:
			return nil, fmt.Errorf("rosbag: unexpected op %#x in index section", op)
		}
	}
	if uint32(len(br.connsOrder)) != br.header.ConnCount {
		return nil, fmt.Errorf("rosbag: found %d connections, bag header says %d", len(br.connsOrder), br.header.ConnCount)
	}
	if uint32(len(br.chunkInfos)) != br.header.ChunkCount {
		return nil, fmt.Errorf("rosbag: found %d chunk infos, bag header says %d", len(br.chunkInfos), br.header.ChunkCount)
	}
	// Chronological chunk order is required by the merge phase.
	sort.Slice(br.chunkInfos, func(i, j int) bool {
		return br.chunkInfos[i].StartTime.Before(br.chunkInfos[j].StartTime)
	})
	return br, nil
}

// Open opens a bag file from the file system.
func Open(path string) (*Reader, *os.File, error) {
	return OpenObs(path, nil)
}

// OpenObs is Open recording the baseline access path to reg.
func OpenObs(path string, reg *obs.Registry) (*Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	r, err := OpenReaderObs(f, st.Size(), reg)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// Stats returns the operation counters accumulated so far.
func (br *Reader) Stats() Stats { return br.stats }

// Connections returns the bag's connections in id order.
func (br *Reader) Connections() []*bagio.Connection {
	out := make([]*bagio.Connection, len(br.connsOrder))
	copy(out, br.connsOrder)
	return out
}

// Topics returns the sorted set of topic names in the bag.
func (br *Reader) Topics() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range br.connsOrder {
		if !seen[c.Topic] {
			seen[c.Topic] = true
			out = append(out, c.Topic)
		}
	}
	sort.Strings(out)
	return out
}

// ChunkCount returns the number of chunks in the bag.
func (br *Reader) ChunkCount() int { return len(br.chunkInfos) }

// MessageCount returns the total number of messages recorded in chunk
// infos, optionally restricted to a topic set.
func (br *Reader) MessageCount(topics ...string) uint64 {
	var want map[string]bool
	if len(topics) > 0 {
		want = map[string]bool{}
		for _, t := range topics {
			want[t] = true
		}
	}
	var n uint64
	for _, ci := range br.chunkInfos {
		for conn, count := range ci.Counts {
			c := br.conns[conn]
			if c == nil {
				continue
			}
			if want == nil || want[c.Topic] {
				n += uint64(count)
			}
		}
	}
	return n
}

// TimeRange returns the earliest and latest message times in the bag.
func (br *Reader) TimeRange() (start, end bagio.Time) {
	for i, ci := range br.chunkInfos {
		if i == 0 || ci.StartTime.Before(start) {
			start = ci.StartTime
		}
		if end.Before(ci.EndTime) {
			end = ci.EndTime
		}
	}
	return start, end
}

// connIDs returns the connection ids whose topic is in the set (or all).
func (br *Reader) connIDs(topicSet map[string]bool) map[uint32]bool {
	ids := map[uint32]bool{}
	for _, c := range br.connsOrder {
		if topicSet == nil || topicSet[c.Topic] {
			ids[c.ID] = true
		}
	}
	return ids
}

type indexedMessage struct {
	conn   uint32
	time   bagio.Time
	offset uint32 // within the uncompressed chunk
	chunk  int    // index into chunkInfos
}

// buildEntryList reproduces the baseline's index-entry construction: for
// every chunk overlapping the query window, read that chunk's index-data
// records, filter by connection and time, then merge-sort everything by
// timestamp (the O(N log N) step the paper describes). It reads through
// sc, re-targeted per chunk.
func (br *Reader) buildEntryList(sc *bagio.RecordScanner, connSet map[uint32]bool, start, end bagio.Time) ([]indexedMessage, error) {
	var entries []indexedMessage
	for chunkIdx, ci := range br.chunkInfos {
		if ci.EndTime.Before(start) || end.Before(ci.StartTime) {
			continue
		}
		// The index-data records follow the chunk record on disk: skip
		// over the chunk payload, then read index records.
		op, _, err := br.seek(sc, ci.ChunkPos).SkipRecord()
		if err != nil {
			return nil, fmt.Errorf("rosbag: skip chunk at %d: %w", ci.ChunkPos, err)
		}
		if op != bagio.OpChunk {
			return nil, fmt.Errorf("rosbag: record at %d has op %#x, want chunk", ci.ChunkPos, op)
		}
		for range ci.Counts {
			rec, err := sc.ReadRecord()
			if err != nil {
				return nil, fmt.Errorf("rosbag: index record after chunk at %d: %w", ci.ChunkPos, err)
			}
			ixOp, err := rec.Op()
			if err != nil {
				return nil, err
			}
			if ixOp != bagio.OpIndexData {
				return nil, fmt.Errorf("rosbag: expected index data after chunk, got op %#x", ixOp)
			}
			ix, err := bagio.DecodeIndexData(rec)
			if err != nil {
				return nil, err
			}
			br.stats.IndexRecordsRead++
			br.stats.BytesRead += int64(len(rec.Data))
			br.stats.MessagesScanned += len(ix.Entries)
			if !connSet[ix.Conn] {
				continue
			}
			for _, e := range ix.Entries {
				if e.Time.Before(start) || end.Before(e.Time) {
					continue
				}
				entries = append(entries, indexedMessage{conn: ix.Conn, time: e.Time, offset: e.Offset, chunk: chunkIdx})
			}
		}
	}
	// Merge-sort by timestamp (stable by chunk/offset for determinism).
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if !a.time.Equal(b.time) {
			return a.time.Before(b.time)
		}
		if a.chunk != b.chunk {
			return a.chunk < b.chunk
		}
		return a.offset < b.offset
	})
	return entries, nil
}

// seek re-targets sc at file offset pos.
func (br *Reader) seek(sc *bagio.RecordScanner, pos uint64) *bagio.RecordScanner {
	br.stats.Seeks++
	sc.Reset(io.NewSectionReader(br.r, int64(pos), br.size-int64(pos)), int64(pos))
	return sc
}

// readChunkData loads and decompresses the chunk payload at ci into sc's
// buffers, or *inflated when compressed: the result is valid until the
// next call with either.
func (br *Reader) readChunkData(sc *bagio.RecordScanner, ci *bagio.ChunkInfo, inflated *[]byte) ([]byte, error) {
	rec, err := br.seek(sc, ci.ChunkPos).ReadRaw()
	if err != nil {
		return nil, fmt.Errorf("rosbag: read chunk at %d: %w", ci.ChunkPos, err)
	}
	if op, _ := rec.Header.Op(); op != bagio.OpChunk {
		return nil, fmt.Errorf("rosbag: record at %d is not a chunk", ci.ChunkPos)
	}
	br.stats.ChunksRead++
	br.stats.BytesRead += int64(len(rec.Data))
	return rec.ChunkData(inflated)
}

// ReadMessages yields matching messages in timestamp order. This is the
// baseline two-dimensional (topics, time-range) query path.
func (br *Reader) ReadMessages(q Query, fn func(MessageRef) error) (err error) {
	sp := br.readOp.Start()
	bytesBefore := br.stats.BytesRead
	defer func() {
		if err != nil {
			sp.EndErr(err)
		} else {
			sp.EndBytes(br.stats.BytesRead - bytesBefore)
		}
	}()
	topicSet, start, end := q.normalize()
	connSet := br.connIDs(topicSet)
	// One scanner and inflate buffer per call, so a callback may query
	// the same Reader again without clobbering the chunk being delivered.
	sc := bagio.NewRecordScanner(nil)
	var inflated []byte
	entries, err := br.buildEntryList(sc, connSet, start, end)
	if err != nil {
		return err
	}
	// Read chunks lazily, caching the most recent one: entries sorted by
	// time frequently alternate between neighbouring chunks, matching the
	// baseline's seek-heavy behaviour.
	cachedChunk := -1
	var chunkData []byte
	for _, e := range entries {
		if e.chunk != cachedChunk {
			chunkData, err = br.readChunkData(sc, br.chunkInfos[e.chunk], &inflated)
			if err != nil {
				return err
			}
			cachedChunk = e.chunk
		}
		if int(e.offset) >= len(chunkData) {
			return fmt.Errorf("rosbag: index offset %d beyond chunk of %d bytes", e.offset, len(chunkData))
		}
		rec, _, err := bagio.SplitRecord(chunkData[e.offset:])
		if err != nil {
			return fmt.Errorf("rosbag: message record at chunk offset %d: %w", e.offset, err)
		}
		md, err := rec.MessageData()
		if err != nil {
			return err
		}
		c := br.conns[md.Conn]
		if c == nil {
			return fmt.Errorf("rosbag: message on unknown connection %d", md.Conn)
		}
		if err := fn(MessageRef{Conn: c, Time: md.Time, Data: md.Data}); err != nil {
			return err
		}
	}
	return nil
}
