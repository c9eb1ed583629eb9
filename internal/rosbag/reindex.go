package rosbag

import (
	"fmt"
	"io"

	"repro/internal/bagio"
	"repro/internal/obs"
)

// ReindexStats reports what a salvage pass recovered.
type ReindexStats struct {
	Messages    uint64
	Connections int
	Chunks      int
	// Truncated reports that scanning stopped early at a damaged or
	// incomplete record (an interrupted recording).
	Truncated bool
}

// Reindex salvages the messages of a damaged or unclosed bag (one whose
// recorder never wrote the index section — `index_pos` still zero) and
// writes them into a fresh, fully indexed bag on ws. This mirrors the
// `rosbag reindex` tool: everything readable before the first corrupt
// byte is recovered.
func Reindex(r io.ReaderAt, size int64, ws io.WriteSeeker, opts WriterOptions) (ReindexStats, error) {
	var stats ReindexStats
	wk, err := openWalk(r, size)
	if err != nil {
		return stats, fmt.Errorf("rosbag: reindex: %w", err)
	}
	defer wk.release()
	w, err := NewWriter(ws, opts)
	if err != nil {
		return stats, err
	}
	newIDs := map[uint32]uint32{}
	// A damaged record ends the salvage (Truncated: keep what we have); a
	// failing writer fails it.
	var writeErr error
	walkErr := wk.run(0, obs.Span{}, nil, func(c *bagio.Connection, t bagio.Time, data []byte) error {
		id, ok := newIDs[c.ID]
		if !ok {
			if id, writeErr = w.RegisterConnection(c); writeErr != nil {
				return writeErr
			}
			newIDs[c.ID] = id
		}
		if writeErr = w.WriteMessage(id, t, data); writeErr != nil {
			return writeErr
		}
		stats.Messages++
		return nil
	})
	stats.Connections, stats.Chunks = len(wk.conns), wk.chunks
	if writeErr != nil {
		return stats, writeErr
	}
	stats.Truncated = walkErr != nil
	if err := w.Close(); err != nil {
		return stats, err
	}
	return stats, nil
}
