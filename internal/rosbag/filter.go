package rosbag

import "io"

// Filter extracts the subset of a bag matching the query into a new bag
// on ws — the stock rebagging workflow ("APIs like rebagging [are]
// available for developers to iterate over a bag and extract messages
// that match a particular filter into a new bag file"). Unlike BORA's
// container-to-container Rebag, this path pays the full baseline costs:
// an indexed open of the source plus a chunk-seeking read of every
// matching message, then a complete re-write.
//
// keep may be nil to keep every message matched by q.
func Filter(src io.ReaderAt, size int64, ws io.WriteSeeker, q Query, keep func(MessageRef) bool, opts WriterOptions) (uint64, error) {
	r, err := OpenReader(src, size)
	if err != nil {
		return 0, err
	}
	w, err := NewWriter(ws, opts)
	if err != nil {
		return 0, err
	}
	conns := map[string]uint32{}
	var kept uint64
	err = r.ReadMessages(q, func(m MessageRef) error {
		if keep != nil && !keep(m) {
			return nil
		}
		id, ok := conns[m.Conn.Topic]
		if !ok {
			var err error
			id, err = w.RegisterConnection(m.Conn)
			if err != nil {
				return err
			}
			conns[m.Conn.Topic] = id
		}
		if err := w.WriteMessage(id, m.Time, m.Data); err != nil {
			return err
		}
		kept++
		return nil
	})
	if err != nil {
		return kept, err
	}
	return kept, w.Close()
}
