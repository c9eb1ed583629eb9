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
	df      container.DataReader   // opened by the first delivery
	scratch *msgScratch            // the owning stream's read buffer
	d       Stats
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

// deliver reads the messages entries describes, in order, and hands
// each to the query's callback — a cursor's whole selection in topic
// order, one entry at a time under the merge and the tail — opening
// the part's data on first use. The reads are borrowed: data lives in
// the stream's scratch (or the block cache) and is valid only until the
// callback returns — see MessageRef.
func (c *cursor) deliver(entries []container.IndexEntry) (err error) {
	if c.df == nil && len(entries) > 0 {
		if c.df, err = c.t.OpenDataQ(c.q.aq); err != nil {
			return err
		}
		c.d.Seeks++ // one open/position per topic file
	}
	t, df, buf, conn, fn := c.t, c.df, &c.scratch.buf, c.t.Connection(), c.q.fn
	for _, e := range entries {
		data, err := t.ReadMessageInto(df, e, buf)
		if err != nil {
			return err
		}
		c.d.BytesRead += int64(len(data))
		c.d.MessagesRead++
		if err := fn(MessageRef{Conn: conn, Time: e.Time, Data: data}); err != nil {
			return err
		}
	}
	return nil
}

// close releases the reader and merges the cursor's counters into the
// bag's stats, the container-level read counters (hot-bag tracking) and
// the query's attribution — the one place a read's accounting lands.
func (c *cursor) close() {
	if c.df != nil {
		c.df.Close()
	}
	bag, d := c.q.bag, c.d
	bag.mu.Lock()
	bag.stats.Seeks += d.Seeks
	bag.stats.BytesRead += d.BytesRead
	bag.stats.EntriesScanned += d.EntriesScanned
	bag.stats.WindowsScanned += d.WindowsScanned
	bag.stats.MessagesRead += d.MessagesRead
	bag.mu.Unlock()
	if len(bag.segs) > 0 {
		bag.segs[0].NoteReads(int64(d.MessagesRead), d.BytesRead)
	}
	c.q.aq.AddIndexProbes(int64(d.EntriesScanned))
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
