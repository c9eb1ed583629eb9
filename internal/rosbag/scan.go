package rosbag

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/bagio"
	"repro/internal/obs"
)

// ScanFunc receives each message during a sequential scan, in file order.
// The data slice is only valid for the duration of the call.
type ScanFunc func(conn *bagio.Connection, t bagio.Time, data []byte) error

// Scan iterates every message of a bag in file (chronological) order with
// a single pass and no index usage — the access pattern of BORA's data
// organizer, which "re-distributes data to target sub-directories by
// scanning the file once" (Fig 6). Connections are discovered from the
// records embedded in chunks; the index section at the tail is skipped.
func Scan(r io.ReaderAt, size int64, fn ScanFunc) error {
	return ScanSpan(r, size, obs.Span{}, fn)
}

// ScanSpan is Scan recorded to parent's registry as one rosbag.scan
// child span of parent carrying the total payload bytes delivered, with
// one rosbag.scan_chunk child span per chunk. A zero parent disables
// recording.
func ScanSpan(r io.ReaderAt, size int64, parent obs.Span, fn ScanFunc) error {
	reg := parent.Registry()
	sp := parent.ChildOp(reg.Op("rosbag.scan"))
	w, err := openWalk(r, size)
	if err == nil {
		defer w.release()
		// The chunk section ends at index_pos; everything after it is
		// connection/chunk-info records a scan does not need.
		var bh *bagio.BagHeader
		if bh, err = bagio.DecodeBagHeader(w.header); err == nil {
			err = w.run(bh.IndexPos, sp, reg.Op("rosbag.scan_chunk"), fn)
		}
	}
	if err != nil {
		sp.EndErr(err)
		return err
	}
	sp.EndBytes(w.delivered)
	return nil
}

// walker is one sequential pass over a bag's record stream: the chunk
// walk Scan and Reindex share. It parses in place, so the data a
// ScanFunc sees aliases the scanner's (or inflated's) memory.
// Connections are discovered from the records embedded in chunks (or
// between them); conns, chunks and delivered count what the pass has
// seen so far.
type walker struct {
	sc        *bagio.RecordScanner
	header    *bagio.Record // the bag header record
	conns     map[uint32]*bagio.Connection
	inflated  []byte // a compressed chunk's contents, reused chunk to chunk
	chunks    int    // chunks decoded
	delivered int64  // payload bytes handed to the callback
}

// idleWalker keeps the last finished pass's scratch — the scanner with
// its 64 KiB read buffer and the chunk block it grew to, and the inflate
// buffer — for the next pass: a Duplicate scans a whole bag per call.
// One slot, not a sync.Pool: a pool keeps a walker per P that put one
// back, and holding a chunk-sized buffer for each of them raised the
// duplicate workload's peak RSS by 2–3 MB. A pass that finds the slot
// empty, as concurrent passes do, allocates its own.
var idleWalker atomic.Pointer[walker]

// openWalk checks the magic and reads the bag header record. The caller
// releases the walker when the pass is over.
func openWalk(r io.ReaderAt, size int64) (*walker, error) {
	w := idleWalker.Swap(nil)
	if w == nil {
		w = &walker{sc: bagio.NewRecordScanner(nil)}
	}
	w.sc.Reset(io.NewSectionReader(r, 0, size), 0)
	if err := w.sc.ReadMagic(); err != nil {
		w.release()
		return nil, err
	}
	first, err := w.sc.ReadRecord()
	if err != nil {
		w.release()
		return nil, fmt.Errorf("rosbag: bag header: %w", err)
	}
	if op, err := first.Op(); err != nil || op != bagio.OpBagHeader {
		w.release()
		return nil, fmt.Errorf("rosbag: first record is not a bag header")
	}
	w.header, w.conns, w.chunks, w.delivered = first, map[uint32]*bagio.Connection{}, 0, 0
	return w, nil
}

// release leaves the walker's scratch in the idle slot: the next pass
// overwrites the bytes this one handed its ScanFunc.
func (w *walker) release() {
	w.sc.Reset(nil, 0)
	w.header, w.conns = nil, nil
	idleWalker.Store(w)
}

// run delivers every message of the chunk section to fn in file order,
// each chunk under a chunkOp child span of sp. With indexPos != 0 the
// pass trusts the header: it ends at that offset, or at the first
// chunk-info record. A salvage pass (indexPos 0: the header of a damaged
// bag proves nothing) reads to the end and skips index remnants. The
// error is the first damaged record, or whatever fn returned.
func (w *walker) run(indexPos uint64, sp obs.Span, chunkOp *obs.Op, fn ScanFunc) error {
	for {
		if indexPos != 0 && uint64(w.sc.Offset()) >= indexPos {
			return nil
		}
		rec, err := w.sc.ReadRaw()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		op, err := rec.Header.Op()
		if err != nil {
			return err
		}
		switch op {
		case bagio.OpChunk:
			csp := sp.ChildOp(chunkOp)
			inner, err := rec.ChunkData(&w.inflated)
			if err == nil {
				w.chunks++
				err = w.chunkRecords(inner, fn)
			}
			if err != nil {
				csp.EndErr(err)
				return err
			}
			csp.EndBytes(int64(len(inner)))
		case bagio.OpConnection:
			if err := w.addConn(rec); err != nil {
				return err
			}
		case bagio.OpIndexData:
			// Interleaved per-chunk index records: not needed.
		case bagio.OpChunkInfo:
			if indexPos != 0 {
				return nil // the index section of a closed bag
			}
		default:
			return fmt.Errorf("rosbag: unexpected op %#x at offset %d", op, w.sc.Offset())
		}
	}
}

// addConn records the connection of an op=0x07 record; the first record
// of an id wins.
func (w *walker) addConn(rec bagio.RawRecord) error {
	h, err := bagio.DecodeHeader(rec.Header)
	if err != nil {
		return err
	}
	c, err := bagio.DecodeConnection(&bagio.Record{Header: h, Data: rec.Data})
	if err != nil {
		return err
	}
	if _, dup := w.conns[c.ID]; !dup {
		w.conns[c.ID] = c
	}
	return nil
}

// chunkRecords iterates the records of an uncompressed chunk in place.
func (w *walker) chunkRecords(inner []byte, fn ScanFunc) error {
	for len(inner) > 0 {
		rec, rest, err := bagio.SplitRecord(inner)
		if err != nil {
			return err
		}
		inner = rest
		// One walk of the header reads a message record's op, conn and time.
		op, conn, t, err := rec.Header.Message()
		if err != nil {
			return err
		}
		switch op {
		case bagio.OpConnection:
			if err := w.addConn(rec); err != nil {
				return err
			}
		case bagio.OpMessageData:
			c := w.conns[conn]
			if c == nil {
				return fmt.Errorf("rosbag: message on connection %d before its connection record", conn)
			}
			w.delivered += int64(len(rec.Data))
			if err := fn(c, t, rec.Data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("rosbag: unexpected op %#x inside chunk", op)
		}
	}
	return nil
}
