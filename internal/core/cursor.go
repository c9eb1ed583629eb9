package core

import (
	"sort"

	"repro/internal/container"
	"repro/internal/obs"
)

// cursor is one topic part being read: the part, the entries the query
// selected from it, a position in them, and the open data reader. Every
// ordering policy is a loop over cursors with lookahead — topic order
// drains one cursor after another, time order merges many in runs
// through a heap, and the Follow tail gives each topic's current part a
// cursor whose selection is the batch's journal entries for it,
// delivered in journal order.
type cursor struct {
	q       *query
	t       *container.Topic
	entries []container.IndexEntry // the selection, in delivery order
	inOrder bool                   // the selection is in time order: its part's ordered prefix covers it
	pos     int                    // next entry (time order, Follow tail)
	ord     int                    // position among the merge's cursors: the tie-break
	merged  bool                   // time order, Follow tail: delivered between other cursors' entries
	df      container.DataReader   // opened by the first delivery
	scratch *msgScratch            // where reads land: the stream's buffer, or a merged cursor's own, taken at open
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
// part's entries are capped at the Follow snapshot limit, filtered to
// [Start, End], and strided by append ordinal: *phase counts the
// chain's in-window messages modulo the stride, carried from part to
// part and on into a Follow tail, so which messages survive never
// depends on the order they are delivered in. A selection within the
// part's ordered prefix is a range: two binary searches find its ends,
// unstrided it is a capped view of the part's shared slice, strided it
// steps by Stride, and EntriesScanned counts the probes and survivors.
// Only a part out of time order walks its candidates (a complete part's
// coarse time-index windows, a building part's every entry) and counts
// each. A complete part loads and checks its time index either way.
func (c *cursor) selectEntries(sp obs.Span, phase *int) error {
	q := c.q
	entries, ordered, err := c.t.EntriesSpan(sp)
	if err != nil {
		return err
	}
	if q.limits != nil {
		entries = entries[:min(len(entries), q.limits[c.t])]
	}
	c.inOrder = len(entries) <= ordered
	if !q.bounded() && q.Stride == 1 {
		c.d.EntriesScanned += len(entries)
		c.entries = entries
		return nil
	}
	var positions []uint32
	n, coarse := len(entries), q.bounded() && q.bag.rec == nil
	if coarse {
		ix, err := c.t.TimeIndex()
		if err != nil {
			return err
		}
		c.d.WindowsScanned += ix.WindowsScanned(q.Start, q.End)
		if !c.inOrder {
			positions = ix.QuerySorted(q.Start, q.End)
			n = len(positions)
		}
	}
	if c.inOrder {
		// Each probe counts as an entry examined.
		lo := sort.Search(len(entries), func(i int) bool { c.d.EntriesScanned++; return !entries[i].Time.Before(q.Start) })
		hi := lo + sort.Search(len(entries)-lo, func(i int) bool { c.d.EntriesScanned++; return q.End.Before(entries[lo+i].Time) })
		if q.Stride == 1 {
			c.entries = entries[lo:hi:hi]
		} else if first := lo + (q.Stride-*phase)%q.Stride; first < hi {
			c.entries = make([]container.IndexEntry, 0, (hi-first-1)/q.Stride+1)
			for i := first; i < hi; i += q.Stride {
				c.entries = append(c.entries, entries[i])
			}
		}
		*phase = (*phase + hi - lo) % q.Stride
		c.d.EntriesScanned += len(c.entries)
		return nil
	}
	sel, ph := []container.IndexEntry(nil), *phase // unstrided, sized by its survivors, not its candidates
	if q.Stride > 1 {
		sel = make([]container.IndexEntry, 0, n/q.Stride+1)
	}
	for i := 0; i < n; i++ {
		pos := i
		if coarse {
			pos = int(positions[i])
		}
		e := entries[pos]
		if e.Time.Before(q.Start) || q.End.Before(e.Time) {
			continue // fine-grain filter at window boundaries
		}
		if ph == 0 {
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
// merge its remaining selection with n = the run that goes before every
// other cursor, and the Follow tail its remaining selection with n = 1.
//
// This is the one place core reads data, and it reads extents, not
// messages: container.ReadExtentInto covers the leading run of
// physically adjacent entries, up to a fixed cap, in one read — one
// ReadAt of a plain file, or one slice of a cached block — and each
// message is sliced out of that buffer. How a part is read is
// container's business; this loop is the same for every reader. An
// extent outlives the call that read it, so a merge taking a short run
// per call issues no more reads than a topic scan does. A run of one —
// a strided or sparse selection — is one read per message, and no byte
// outside a selected message is ever read. The reads are borrowed: data
// lives in the cursor's scratch (or the block cache) beside its
// neighbours in the extent and is valid only until the callback
// returns — see MessageRef.
func (c *cursor) deliver(entries []container.IndexEntry, n int) (err error) {
	if n == 0 {
		return nil
	}
	if c.df == nil {
		if c.df, err = c.t.OpenDataQ(c.q.aq); err != nil {
			return err
		}
		c.d.Seeks++
		// A merge interleaves its cursors' deliveries and an extent outlives
		// the call that read it, so a merged cursor reads into a buffer no
		// other cursor touches: taken here, returned at close, so memory
		// follows the cursors actually open.
		if c.merged {
			c.scratch = scratchPool.Get().(*msgScratch)
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

// close releases the reader and a merged cursor's scratch, and merges
// the cursor's counters into the bag's stats, the container-level read
// counters and the query's attribution — the one place a read's
// accounting lands.
func (c *cursor) close() {
	if c.df != nil {
		c.df.Close()
	}
	if c.merged && c.scratch != nil {
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

// mergeHeap is a typed min-heap of cursors by their next entry's
// timestamp; equal stamps deliver in cursor order (request order of the
// topics, then segment order), which makes the merged sequence
// deterministic.
type mergeHeap []*cursor

// before reports whether a's entry i goes before b's next entry; a nil b
// goes after everything.
func before(a *cursor, i int, b *cursor) bool {
	if b == nil {
		return true
	}
	at, bt := a.entries[i].Time, b.entries[b.pos].Time
	return at.Before(bt) || at == bt && a.ord < b.ord
}

// down sifts h[i] down to its place.
func (h mergeHeap) down(i int) {
	for l := 2*i + 1; l < len(h); i, l = l, 2*l+1 {
		if r := l + 1; r < len(h) && before(h[r], h[r].pos, h[l]) {
			l = r
		}
		if !before(h[l], h[l].pos, h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
	}
}

// run is how many of the top cursor's next entries go before the
// runner-up's head, and so before every other cursor's: at least one.
func (h mergeHeap) run() int {
	var next *cursor
	for _, c := range h[1:min(len(h), 3)] {
		if next == nil || before(c, c.pos, next) {
			next = c
		}
	}
	c, k := h[0], 1
	for c.pos+k < len(c.entries) && before(c, c.pos+k, next) {
		k++
	}
	return k
}
