package core

import (
	"repro/internal/container"
	"repro/internal/obs"
)

// cursor is one topic part being read: the part, the entries the query
// selected from it, a position in them, and the open data reader. Every
// ordering policy is a loop over cursors — topic order drains one
// cursor after another, time order merges many through a heap, and the
// Follow tail delivers journal entries through one cursor per part it
// touches.
type cursor struct {
	q       *query
	t       *container.Topic
	entries []container.IndexEntry // the selection, in delivery order
	pos     int                    // next entry (time order)
	ord     int                    // position among the merge's cursors: the tie-break
	merged  bool                   // time order: delivered an entry per call, between other cursors' entries
	df      container.DataReader   // opened by the first delivery
	scratch *msgScratch            // where reads land: the stream's buffer, or (own) one taken at open
	own     bool                   // scratch came from scratchPool at open and goes back at close
	// The extent last read, while entries it covers are still to be
	// delivered: the next held of them lie in ext, whose first byte is
	// file offset extOff.
	ext    []byte
	extOff uint64
	held   int
	d      Stats
}

// selectEntries decides what the cursor will read from the part's index
// alone, before any data I/O (the index load is traced under sp). The
// part's entries are capped at the
// Follow snapshot limit, narrowed to the coarse time index's candidate
// windows (complete parts only: a building segment's index is still
// growing), filtered to [Start, End], and strided by append ordinal:
// *phase counts the chain's in-window messages modulo the stride,
// carried from part to part and on into a Follow tail, so which
// messages survive never depends on the order they are delivered in.
// An unbounded unstrided query selects the part's shared slice as is.
func (c *cursor) selectEntries(sp obs.Span, phase *int) error {
	q := c.q
	entries, err := c.t.EntriesSpan(sp)
	if err != nil {
		return err
	}
	if q.limits != nil {
		entries = entries[:min(len(entries), q.limits[c.t])]
	}
	if !q.bounded() && q.Stride == 1 {
		c.d.EntriesScanned += len(entries)
		c.entries = entries
		return nil
	}
	var positions []uint32
	coarse := q.bounded() && q.bag.rec == nil
	n := len(entries)
	if coarse {
		ix, err := c.t.TimeIndex()
		if err != nil {
			return err
		}
		positions = ix.QuerySorted(q.Start, q.End)
		c.d.WindowsScanned += ix.WindowsScanned(q.Start, q.End)
		n = len(positions)
	}
	// Unstrided, while the survivors are consecutive entries the
	// selection is a capped view of the part's shared slice — a window of
	// a topic recorded in order costs no copy — and the first append past
	// a gap copies it out. Strided, it is sized up front. Either way: at
	// most one slice per part per query, never anything per message, and
	// the shared slice stays untouched.
	var sel []container.IndexEntry
	if q.Stride > 1 {
		sel = make([]container.IndexEntry, 0, n/q.Stride+1)
	}
	first, ph := 0, *phase
	for i := 0; i < n; i++ {
		pos := i
		if coarse {
			pos = int(positions[i])
		}
		e := entries[pos]
		if e.Time.Before(q.Start) || q.End.Before(e.Time) {
			continue // fine-grain filter at window boundaries
		}
		switch {
		case ph != 0:
		case sel == nil:
			first, sel = pos, entries[pos:pos+1:pos+1]
		case q.Stride == 1 && pos == first+len(sel): // no gap so far
			sel = entries[first : pos+1 : pos+1]
		default:
			sel = append(sel, e)
		}
		if ph++; ph == q.Stride {
			ph = 0
		}
	}
	c.entries, *phase = sel, ph
	c.d.EntriesScanned += n
	return nil
}

// deliver hands the first n of entries to the query's callback, in
// order, opening the part's data on first use; entries[n:] is what this
// cursor will be asked for next, and is only looked ahead over. Topic
// order passes the cursor's whole selection with n = all of it, the
// merge its remaining selection with n = 1, the Follow tail a lone
// journal entry.
//
// This is the one place core reads data, and it reads extents, not
// messages: container.ReadExtentInto covers the leading run of
// physically adjacent entries, up to a fixed cap, with one ReadAt, and
// each message is sliced out of that buffer. An extent outlives the
// call that read it, so a merge taking one message per call issues no
// more reads than a topic scan does. A run of one — a strided or sparse
// selection, a block-cache reader, the tail — is one read per message,
// and no byte outside a selected message is ever read. The reads are
// borrowed: data lives in the cursor's scratch beside its neighbours in
// the extent (or in the block cache) and is valid only until the
// callback returns — see MessageRef.
func (c *cursor) deliver(entries []container.IndexEntry, n int) (err error) {
	if c.df == nil && n > 0 {
		if c.df, err = c.t.OpenDataQ(c.q.aq); err != nil {
			return err
		}
		c.d.Seeks++
		// A merge interleaves its cursors' deliveries, so an extent needs a
		// buffer no other cursor reads into: taken here, returned at close,
		// so memory follows the cursors actually open. A block-cache reader
		// takes no extents — which reader, and so which way of reading, is
		// decided by this open — and keeps sharing the stream's scratch.
		if _, cached := c.df.(container.ZeroCopyReader); c.merged && !cached {
			c.scratch, c.own = scratchPool.Get().(*msgScratch), true
		}
	}
	t, df, buf, conn, fn := c.t, c.df, &c.scratch.buf, c.t.Connection(), c.q.fn
	for i, e := range entries[:n] {
		var data []byte
		if c.held > 0 {
			at := e.PhysicalOffset - c.extOff
			data = c.ext[at : at+uint64(e.Length) : at+uint64(e.Length)]
			c.held--
		} else {
			k := 0
			if data, k, err = t.ReadExtentInto(df, entries[i:], buf); err != nil {
				return err
			}
			c.d.DataReads++
			if k > 1 { // the read holds the next k-1 entries too
				c.ext, c.extOff, c.held = data, e.PhysicalOffset, k-1
				data = data[:e.Length:e.Length]
			}
		}
		c.d.BytesRead += int64(len(data))
		c.d.MessagesRead++
		if err := fn(MessageRef{Conn: conn, Time: e.Time, Data: data}); err != nil {
			return err
		}
	}
	return nil
}

// close releases the reader and the scratch, and merges the cursor's
// counters into the bag's stats, the container-level read counters
// (hot-bag tracking) and the query's attribution — the one place a
// read's accounting lands.
func (c *cursor) close() {
	if c.df != nil {
		c.df.Close()
	}
	if c.own {
		scratchPool.Put(c.scratch)
	}
	bag, d := c.q.bag, c.d
	bag.mu.Lock()
	bag.stats.Seeks += d.Seeks
	bag.stats.DataReads += d.DataReads
	bag.stats.BytesRead += d.BytesRead
	bag.stats.EntriesScanned += d.EntriesScanned
	bag.stats.WindowsScanned += d.WindowsScanned
	bag.stats.MessagesRead += d.MessagesRead
	bag.mu.Unlock()
	if len(bag.segs) > 0 {
		bag.segs[0].NoteReads(int64(d.MessagesRead), d.BytesRead)
	}
	c.q.aq.AddIndexProbes(int64(d.EntriesScanned))
	c.q.aq.AddDataReads(int64(d.DataReads))
}

// mergeHeap orders cursors by their next entry's timestamp; equal
// stamps deliver in cursor order (request order of the topics, then
// segment order), which makes the merged sequence deterministic.
type mergeHeap []*cursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].entries[h[i].pos].Time, h[j].entries[h[j].pos].Time
	if a != b {
		return a.Before(b)
	}
	return h[i].ord < h[j].ord
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*cursor)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}
