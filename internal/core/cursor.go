package core

import (
	"runtime/debug"
	"sort"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/obs"
)

// cursor is one topic part being read: the part, the entries the query
// selected from its index, a position in them, and the open data
// reader. Every ordering policy is a loop over cursors with lookahead —
// topic order drains one cursor after another, time order merges many
// in runs through a heap, and the Follow tail gives each topic's
// current part a cursor whose selection is the batch's journal entries
// for it, delivered in journal order.
type cursor struct {
	q       *query
	t       *container.Topic
	sel     container.IndexView  // the selection, in delivery order: a range of the part's index, or its survivors
	inOrder bool                 // the selection is in time order (set where a policy needs it)
	pos     int                  // the next entry of sel to deliver
	head    bagio.Time           // time order: the next entry's stamp, decoded once
	ord     int                  // position among the merge's cursors: the tie-break
	merged  bool                 // time order, Follow tail: delivered between other cursors' entries
	closed  bool                 // close ran
	df      container.DataReader // opened by the first delivery
	scratch *msgScratch          // where the index and reads land: the stream's, or a merged cursor's own, taken when it is made
	// The extent last read, while entries it covers are still to be
	// delivered: the next held of them lie in ext, whose first byte is
	// file offset extOff, and guard checks that the part still holds it.
	ext    []byte
	extOff uint64
	held   int
	guard  container.Guard
	d      Stats
}

// selectEntries decides what the cursor will read from the part's index
// alone, before any data I/O (the index load is traced under sp). A
// one-shot handle's sealed part reads its index into the cursor's
// scratch, held until close: the query reads the index as it was when
// the part was selected, whatever later becomes of the file. The
// part's entries are capped at the Follow snapshot limit, filtered to
// [Start, End], and strided by append ordinal: *phase counts the
// chain's in-window messages modulo the stride, carried from part to
// part and on into a Follow tail, so which messages survive never
// depends on the order they are delivered in. A full-axis unstrided
// selection is the whole index; a merged one also asks whether it is in
// time order. A selection within the part's ordered prefix is a range:
// two binary searches find its ends, unstrided it is a view of the
// index, strided a view of its survivors, and EntriesScanned counts the
// probes and survivors. Only a part out of time order walks its
// candidates (a complete part's coarse time-index windows, a building
// part's every entry) and counts each. A complete part's time index is
// built from the index it loaded, once per handle, either way.
func (c *cursor) selectEntries(sp obs.Span, phase *int) error {
	q := c.q
	ix, err := c.t.Index(sp, &c.scratch.ix)
	if err != nil {
		return err
	}
	if q.limits != nil {
		ix = ix.Slice(0, min(ix.Len(), q.limits[c.t]))
	}
	full := !q.bounded() && q.Stride == 1
	if !full || c.merged {
		c.inOrder = ix.Len() <= c.t.Ordered(ix)
	}
	if full {
		c.d.EntriesScanned += ix.Len()
		c.sel = ix
		return nil
	}
	var positions []uint32
	n, coarse := ix.Len(), q.bounded() && q.bag.rec == nil
	if coarse {
		tix := c.t.TimeIndex(ix)
		c.d.WindowsScanned += tix.WindowsScanned(q.Start, q.End)
		if !c.inOrder {
			positions = tix.QuerySorted(q.Start, q.End)
			n = len(positions)
		}
	}
	if c.inOrder {
		// Each probe counts as an entry examined.
		lo := sort.Search(ix.Len(), func(i int) bool { c.d.EntriesScanned++; return !ix.Time(i).Before(q.Start) })
		hi := lo + sort.Search(ix.Len()-lo, func(i int) bool { c.d.EntriesScanned++; return q.End.Before(ix.Time(lo + i)) })
		if q.Stride == 1 {
			c.sel = ix.Slice(lo, hi)
		} else if first := lo + (q.Stride-*phase)%q.Stride; first < hi {
			c.sel = c.scratch.sel.Reset((hi-first-1)/q.Stride + 1)
			for i := first; i < hi; i += q.Stride {
				c.sel = c.sel.Append(ix.At(i))
			}
			c.scratch.sel = c.sel
		}
		*phase = (*phase + hi - lo) % q.Stride
		c.d.EntriesScanned += c.sel.Len()
		return nil
	}
	sel, ph := c.scratch.sel.Reset(0), *phase // unstrided, sized by its survivors, not its candidates
	if q.Stride > 1 {
		sel = sel.Reset(n/q.Stride + 1)
	}
	for i := 0; i < n; i++ {
		pos := i
		if coarse {
			pos = int(positions[i])
		}
		if ts := ix.Time(pos); ts.Before(q.Start) || q.End.Before(ts) {
			continue // fine-grain filter at window boundaries
		}
		if ph == 0 {
			sel = sel.Append(ix.At(pos))
		}
		if ph++; ph == q.Stride {
			ph = 0
		}
	}
	c.sel, c.scratch.sel, *phase = sel, sel, ph
	c.d.EntriesScanned += n
	return nil
}

// deliver hands the next n entries of the selection to the query's
// callback, in order, from c.pos on, opening the part's data on first
// use; the entries after them are what this cursor will be asked for
// next, and are only looked ahead over. Topic order passes n = the
// whole selection, the merge n = the run that goes before every other
// cursor, and the Follow tail n = 1.
//
// This is the one place core reads data, and it reads extents, not
// messages: container.ReadExtentInto covers the leading run of
// physically adjacent entries, up to a fixed cap, in one read — one
// slice of a mapping, one ReadAt of a plain file, or one slice of a
// cached block — and each message is sliced out of that buffer. How a
// part is read is container's business; this loop is the same for every
// reader. An extent outlives the call that read it, so a merge taking a
// short run per call issues no more reads than a topic scan does. A run
// of one — a strided or sparse selection — is one read per message, and
// no byte outside a selected message is ever read. The reads are
// borrowed: data lives in the cursor's scratch (or the mapping) beside
// its neighbours in the extent and is valid only until the callback
// returns, or, when it is a slice of a pooled handle's shared mapping
// (Bag.Pinned), until the query's next Idle — see MessageRef.
//
// A mapped part's data can be cut under the query, by a callback,
// without any read failing. So the run's container.Guard checks the
// data before each callback, and once more after the selection's last;
// every fault is the policy's to recover (settle) into the part's
// ErrIndexBeyondData. The index needs no guard: the selection lies in
// bytes the process owns.
func (c *cursor) deliver(n int) (err error) {
	if n == 0 {
		return nil
	}
	t := c.t
	if c.df == nil {
		if c.df, err = t.OpenData(); err != nil {
			return err
		}
		c.d.Seeks++
	}
	df, buf, conn, fn := c.df, &c.scratch.buf, t.Connection(), c.q.fn
	for ; n > 0; n-- {
		e := c.sel.At(c.pos)
		var data []byte
		if c.held > 0 {
			at := e.PhysicalOffset - c.extOff
			data = c.ext[at : at+uint64(e.Length) : at+uint64(e.Length)]
			c.held--
		} else {
			k := 0
			if data, k, err = t.ReadExtentInto(df, c.sel.Slice(c.pos, c.sel.Len()), buf); err != nil {
				return err
			}
			c.d.DataReads++
			c.guard = t.Guard(df, data)
			if k > 1 { // the read holds the next k-1 entries too
				c.ext, c.extOff, c.held = data, e.PhysicalOffset, k-1
				data = data[:e.Length:e.Length]
			}
		}
		c.guard.Check()
		c.d.BytesRead += int64(len(data))
		c.d.MessagesRead++
		c.pos++
		if err := fn(MessageRef{Conn: conn, Time: e.Time, Data: data}); err != nil {
			return err
		}
	}
	if c.pos == c.sel.Len() {
		c.guard.Check() // the last callback may have cut what it read
	}
	return nil
}

// close releases the reader and a merged cursor's scratch, with any
// index read into it, and merges the cursor's counters into the bag's
// stats, the container-level read counters and the query's attribution
// — the one place a read's accounting lands. A second close does
// nothing.
func (c *cursor) close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.df != nil {
		c.df.Close()
	}
	// Nothing keeps pointing into what was unmapped or handed back.
	c.sel, c.ext, c.guard = container.IndexView{}, nil, container.Guard{}
	if c.merged {
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

// settle, deferred by an ordering policy over the cursors it opened,
// closes them all and turns a memory fault inside one of their data
// mappings — cut under the query, touched in a read or in the callback
// — into that part's ErrIndexBeyondData. Any other panic goes on once
// the cursors are closed.
func settle(err *error, open *[]*cursor) {
	p := recover()
	var fault error
	for _, c := range *open {
		if p != nil && fault == nil {
			fault = c.t.Fault(c.df, p)
		}
		c.close()
	}
	if p != nil && fault == nil {
		panic(p)
	}
	if fault != nil {
		*err = fault
	}
}

// panicOnFault sets whether a memory fault on this goroutine panics
// (for settle to recover) rather than crashes, returning the old
// setting: every policy run turns it on where it delivers.
func panicOnFault(on bool) bool { return debug.SetPanicOnFault(on) }

// mergeHeap is a typed min-heap of cursors by their next entry's
// timestamp (head); equal stamps deliver in cursor order (request order
// of the topics, then segment order), which makes the merged sequence
// deterministic.
type mergeHeap []*cursor

// before reports whether an entry of a stamped at goes before b's next
// entry; a nil b goes after everything.
func before(a *cursor, at bagio.Time, b *cursor) bool {
	return b == nil || at.Before(b.head) || at == b.head && a.ord < b.ord
}

// down sifts h[i] down to its place.
func (h mergeHeap) down(i int) {
	for l := 2*i + 1; l < len(h); i, l = l, 2*l+1 {
		if r := l + 1; r < len(h) && before(h[r], h[r].head, h[l]) {
			l = r
		}
		if !before(h[l], h[l].head, h[i]) {
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
		if before(c, c.head, next) {
			next = c
		}
	}
	c, k := h[0], 1
	n := c.sel.Len()
	for c.pos+k < n && before(c, c.sel.Time(c.pos+k), next) {
		k++
	}
	return k
}
