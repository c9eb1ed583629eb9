package core

import (
	"context"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/obs"
)

// followQuery executes a QuerySpec{Follow: true} query in two phases.
//
// Phase 1 (snapshot): subscribe to the recorder under its write lock,
// capturing a consistent cut — per-part entry counts plus the journal
// position. Everything recorded before the cut is delivered by the
// chronological merge, restricted to the cut by per-part limits, so the
// snapshot is byte-identical to what a post-hoc OrderTime query of the
// same messages would deliver.
//
// Phase 2 (tail): drain the recorder's journal from the cut position,
// in write order, reading each payload back through the same borrowed-
// buffer path as every other plan (the bytes are on disk — and in the
// page cache — before the journal entry is published). Between writes
// the query blocks on the subscription's notify channel; it wakes for
// new messages, for the recording sealing (clean return), or for
// context cancellation; idle (QuerySpec.Idle) runs before each block.
//
// Messages are delivered exactly once: the cut is taken under the same
// lock that orders writes, so limits and journal[pos:] partition the
// recording with no overlap and no gap.
//
// On a bag that is not live-wired (complete live bag, classic bag)
// there is no tail: the chronological snapshot is the whole recording.
func (bag *Bag) followQuery(ctx context.Context, parent obs.Span, aq *obs.ActiveQuery, topics []string, start, end bagio.Time, idle func() error, fn func(MessageRef) error) (err error) {
	sp := parent.ChildOp(bag.ops.follow)
	defer func() { sp.EndErr(err) }()
	rec := bag.rec
	if rec == nil {
		return bag.readMessagesChrono(sp, aq, topics, start, end, nil, fn)
	}
	f := rec.subscribe()
	defer rec.unsubscribe(f)
	if err := bag.readMessagesChrono(sp, aq, topics, start, end, f.limits, fn); err != nil {
		return err
	}

	var want map[string]bool
	if len(topics) > 0 {
		want = make(map[string]bool, len(topics))
		for _, t := range topics {
			want[t] = true
		}
	}
	var d Stats
	defer func() {
		bag.addStats(d)
		bag.noteReads(int64(d.MessagesRead), d.BytesRead)
		aq.AddIndexProbes(int64(d.EntriesScanned))
	}()
	// One lazily-opened data reader per topic part the tail touches —
	// parts appear as segments rotate — and one scratch for the whole
	// tail: delivery is strictly one message at a time.
	readers := map[*container.Topic]container.DataReader{}
	defer func() {
		for _, df := range readers {
			df.Close()
		}
	}()
	scratch := scratchPool.Get().(*msgScratch)
	defer scratchPool.Put(scratch)
	done := ctx.Done()
	pos := f.pos
	var batch []tailRef
	for {
		refs, sealed := rec.tailBatch(pos, batch)
		batch = refs[:0]
		for _, ref := range refs {
			pos++
			d.EntriesScanned++
			conn := ref.t.Connection()
			if want != nil && !want[conn.Topic] {
				continue
			}
			if ref.e.Time.Before(start) || end.Before(ref.e.Time) {
				continue
			}
			df := readers[ref.t]
			if df == nil {
				df, err = ref.t.OpenDataQ(aq)
				if err != nil {
					return err
				}
				readers[ref.t] = df
				d.Seeks++
			}
			data, err := ref.t.ReadMessageInto(df, ref.e, &scratch.buf)
			if err != nil {
				return err
			}
			d.BytesRead += int64(len(data))
			d.MessagesRead++
			if err := fn(MessageRef{Conn: conn, Time: ref.e.Time, Data: data}); err != nil {
				return err
			}
		}
		if sealed {
			return nil // batch reached the journal's final entry
		}
		if len(refs) == 0 {
			if idle != nil {
				if err := idle(); err != nil {
					return err
				}
			}
			select {
			case <-done:
				return ctx.Err()
			case <-f.ch:
			}
		}
	}
}
