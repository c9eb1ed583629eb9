package rosbag

import (
	"bytes"
	"fmt"
	"io"

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
// walk Scan and Reindex share. Connections are discovered from the
// records embedded in chunks (or between them); conns, chunks and
// delivered count what the pass has seen so far.
type walker struct {
	sc        *bagio.RecordScanner
	header    *bagio.Record // the bag header record
	conns     map[uint32]*bagio.Connection
	chunks    int   // chunks decoded
	delivered int64 // payload bytes handed to the callback
}

// openWalk checks the magic and reads the bag header record.
func openWalk(r io.ReaderAt, size int64) (*walker, error) {
	sc := bagio.NewRecordScanner(io.NewSectionReader(r, 0, size))
	if err := sc.ReadMagic(); err != nil {
		return nil, err
	}
	first, err := sc.ReadRecord()
	if err != nil {
		return nil, fmt.Errorf("rosbag: bag header: %w", err)
	}
	if op, err := first.Op(); err != nil || op != bagio.OpBagHeader {
		return nil, fmt.Errorf("rosbag: first record is not a bag header")
	}
	return &walker{sc: sc, header: first, conns: map[uint32]*bagio.Connection{}}, nil
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
		rec, err := w.sc.ReadRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		op, err := rec.Op()
		if err != nil {
			return err
		}
		switch op {
		case bagio.OpChunk:
			csp := sp.ChildOp(chunkOp)
			inner, err := bagio.DecodeChunk(rec)
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
func (w *walker) addConn(rec *bagio.Record) error {
	c, err := bagio.DecodeConnection(rec)
	if err != nil {
		return err
	}
	if _, dup := w.conns[c.ID]; !dup {
		w.conns[c.ID] = c
	}
	return nil
}

// chunkRecords iterates the records inside an uncompressed chunk.
func (w *walker) chunkRecords(inner []byte, fn ScanFunc) error {
	sc := bagio.NewRecordScanner(bytes.NewReader(inner))
	for {
		rec, err := sc.ReadRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		op, err := rec.Op()
		if err != nil {
			return err
		}
		switch op {
		case bagio.OpConnection:
			if err := w.addConn(rec); err != nil {
				return err
			}
		case bagio.OpMessageData:
			md, err := bagio.DecodeMessageData(rec)
			if err != nil {
				return err
			}
			c := w.conns[md.Conn]
			if c == nil {
				return fmt.Errorf("rosbag: message on connection %d before its connection record", md.Conn)
			}
			w.delivered += int64(len(md.Data))
			if err := fn(c, md.Time, md.Data); err != nil {
				return err
			}
		default:
			return fmt.Errorf("rosbag: unexpected op %#x inside chunk", op)
		}
	}
}
