package core

import (
	"context"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/obs"
	"repro/internal/spec"
)

// QuerySpec is the query selection (spec.Query): topics, window,
// order, stride and Follow, validated by its one Validate. Bag.Query
// and BORA.Rebag take it; TransformSpec.QuerySpec builds it.
type QuerySpec = spec.Query

// Order selects the cross-topic delivery order of a query (spec.Order).
type Order = spec.Order

// The delivery orders; see spec.OrderTopic and spec.OrderTime.
const (
	OrderTopic = spec.OrderTopic
	OrderTime  = spec.OrderTime
)

// Exec is how a query runs, apart from what it selects.
type Exec struct {
	// Idle, when non-nil, is the moment for a callback that batches what
	// it is handed (borad's frame batcher) to push the batch out. Every
	// plan calls it after a part's last delivery, before it settles the
	// part's cursors: the last moment pinned Data (Bag.Pinned) of the
	// part may be read, inside the query's fault guard. A Follow query
	// also calls it each time it has delivered everything recorded so far
	// and is about to block until the next write. An error ends the query.
	Idle func() error
}

// cancelCheckBatch is how many messages a cancellable query reads
// between context checks: frequent enough that an abandoned stream
// stops reading from disk promptly, infrequent enough that the check
// (one ctx.Err) stays off the per-message profile.
const cancelCheckBatch = 64

// checkCancel wraps fn in ctx's cancellation check, made once every
// cancelCheckBatch messages. It counts in a plain int: every plan
// delivers on the query's goroutine.
func checkCancel(ctx context.Context, fn func(MessageRef) error) func(MessageRef) error {
	if ctx.Done() == nil {
		return fn
	}
	n := 0
	return func(m MessageRef) error {
		if n++; n%cancelCheckBatch == 1 && ctx.Err() != nil {
			return ctx.Err()
		}
		return fn(m)
	}
}

// Query reads the bag per spec, invoking fn for every delivered
// message, serially; it is Execute with no context and no Exec.
//
// The MessageRef passed to fn borrows its Data: the bytes are valid
// only until fn returns (see the MessageRef ownership contract). Every
// plan reuses pooled scratch buffers — and serves a pooled handle's
// reads as slices of its mappings — so the steady-state per-message cost
// of the hot loop is zero allocations.
func (bag *Bag) Query(spec QuerySpec, fn func(MessageRef) error) error {
	return bag.Execute(context.Background(), spec, Exec{}, fn)
}

// QueryContext is Query bound to ctx; see Execute.
func (bag *Bag) QueryContext(ctx context.Context, spec QuerySpec, fn func(MessageRef) error) error {
	return bag.Execute(ctx, spec, Exec{}, fn)
}

// Execute is the one query entry point: it reads the bag per spec,
// run as ex says, invoking fn for every delivered message. The plan —
// and the obs op it is recorded under — follows from both: a full-axis
// serial scan is core.read, a time-bounded serial scan is
// core.read_time (the coarse window index prunes the per-topic scans),
// OrderTime is core.read_chrono and Follow is core.follow. Every plan
// calls fn on the caller's goroutine.
//
// ctx bounds the query: cancellation is checked once per message
// batch, so a canceled query (a disconnected network client, an
// expired deadline) stops reading from disk within cancelCheckBatch
// messages and returns ctx.Err(). ctx also carries what the query is
// attributed to: its obs.ActiveQuery (obs.ContextWithQuery) and the
// span its own nests under (obs.Span.InContext; none traces it as a
// root).
//
// Every query runs the same way: the spec is validated into a query,
// each topic part is resolved to a selection from its index alone
// (cursor.selectEntries), and one of three ordering policies — topic
// order, time order, Follow — drains the resulting cursors through
// cursor.deliver.
func (bag *Bag) Execute(ctx context.Context, spec QuerySpec, ex Exec, fn func(MessageRef) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.End.IsZero() {
		spec.End = bagio.MaxTime
	}
	spec.Stride = max(spec.Stride, 1)
	// Per-query attribution: the ActiveQuery and the parent span (if
	// any) are fetched from the context exactly once per query and
	// carried by the query — the per-message hot loops never touch the
	// context.
	parent := obs.SpanFromContext(ctx)
	q := &query{QuerySpec: spec, Exec: ex, bag: bag, aq: obs.QueryFromContext(ctx), fn: checkCancel(ctx, fn)}
	switch {
	case spec.Follow:
		return q.follow(ctx, parent)
	case spec.Order == OrderTime:
		return q.readTime(parent)
	default:
		return q.readTopics(parent)
	}
}

// query is a validated QuerySpec (End and Stride normalized) and how it
// runs, bound to its bag: what selection and every ordering policy read.
type query struct {
	QuerySpec
	Exec
	bag *Bag
	aq  *obs.ActiveQuery
	fn  func(MessageRef) error // the caller's callback, wrapped in checkCancel
	// A live Follow's snapshot cut: limits caps each part's selection at
	// its entry count when the query subscribed (absent parts select
	// nothing), and phases receives each chain's stride phase at the cut
	// for the tail to continue from. Both nil otherwise.
	limits map[*container.Topic]int
	phases map[string]int
}

// bounded reports whether the window excludes anything.
func (q *query) bounded() bool {
	return q.Start != bagio.MinTime || q.End != bagio.MaxTime
}

// readTopics is the topic-order policy: chains stream in request order,
// each its parts in segment order, which preserves per-topic append
// order even when the topic spans live segments — the whole-file
// sequential reads of Fig 7. The first error ends the query.
//
// The span keeps the historical op names: core.read for a full-axis
// scan (Fig 7), core.read_time when the time index bounds it (Fig 8).
//
// The query draws one scratch buffer from the shared scratchPool, so
// steady-state streaming stays allocation-free across queries.
func (q *query) readTopics(parent obs.Span) (err error) {
	op := q.bag.ops.read
	if q.bounded() {
		op = q.bag.ops.readTime
	}
	sp := parent.ChildOp(op)
	defer func() { sp.EndErr(err) }()
	defer panicOnFault(panicOnFault(true))
	chains, err := q.bag.chains(q.Topics, false)
	if err != nil {
		return err
	}
	scratch := scratchPool.Get().(*msgScratch)
	defer scratchPool.Put(scratch)
	for _, ch := range chains {
		phase := 0
		for _, t := range ch.parts {
			if err := q.readPart(sp.ChildOp(q.bag.ops.readTopic), t, &phase, scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

// readPart streams one part's selection in append order under sp, the
// part's already-started core.read_topic span, and ends it.
func (q *query) readPart(sp obs.Span, t *container.Topic, phase *int, scratch *msgScratch) (err error) {
	c := &cursor{q: q, t: t, scratch: scratch}
	defer func() {
		if err != nil {
			sp.EndErr(err)
		} else {
			sp.EndBytes(c.d.BytesRead)
		}
	}()
	open := []*cursor{c}
	defer settle(&err, &open)
	if err = c.selectEntries(sp, phase); err == nil {
		err = c.deliver(c.sel.Len())
	}
	return q.idle(err)
}

// idle calls Exec.Idle after a policy's last delivery from its
// cursors, before settle closes them, unless the deliveries failed.
func (q *query) idle(err error) error {
	if err == nil && q.Idle != nil {
		err = q.Idle()
	}
	return err
}

// readTime is the time-order policy: messages of the requested topics
// in global timestamp order, merging the per-part cursors of every
// chain through mergeHeap, one deliver call and one sift per run (the
// top cursor's entries that go before every other cursor's head).
// Under a snapshot cut (q.limits, from a Follow subscription) each
// part selects from at most its limit entries and unknown topics
// resolve leniently — together that restricts the merge to exactly the
// messages recorded before the subscription.
func (q *query) readTime(parent obs.Span) (err error) {
	sp := parent.ChildOp(q.bag.ops.readChrono)
	defer func() { sp.EndErr(err) }()
	defer panicOnFault(panicOnFault(true))
	// Every cursor opened is settled at the end: closed, and a fault in
	// any of their mappings made its part's error.
	var open []*cursor
	defer settle(&err, &open)
	chains, err := q.bag.chains(q.Topics, q.limits != nil)
	if err != nil {
		return err
	}
	// Each cursor takes a scratch of its own when it is made, for its
	// index and its reads, and close returns it: an extent it read is
	// still being served while other cursors read theirs.
	var h mergeHeap
	for _, ch := range chains {
		phase := 0
		for _, t := range ch.parts {
			c := &cursor{q: q, t: t, merged: true, scratch: scratchPool.Get().(*msgScratch)}
			open = append(open, c)
			if err := c.selectEntries(sp, &phase); err != nil {
				return err
			}
			if c.sel.Len() == 0 {
				c.close()
				continue
			}
			// A part whose ordered prefix covers its selection is already in
			// time order; any other is sorted into a view of its own,
			// stably, so equal stamps keep append order.
			if !c.inOrder {
				c.sel = c.sel.SortedByTime()
			}
			c.head = c.sel.Time(0)
			c.ord = len(h)
			h = append(h, c)
		}
		if q.phases != nil {
			q.phases[ch.name] = phase
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 0 {
		c, k := h[0], h.run()
		if err := c.deliver(k); err != nil {
			return err
		}
		if c.pos == c.sel.Len() {
			c.close()
			h[0], h = h[len(h)-1], h[:len(h)-1]
		} else {
			c.head = c.sel.Time(c.pos)
		}
		h.down(0)
	}
	return q.idle(nil)
}

// follow is the Follow policy, in two phases.
//
// Phase 1 (snapshot): subscribe to the recorder under its write lock,
// capturing a consistent cut — per-part entry counts plus the journal
// position. Everything recorded before the cut is delivered by the
// time-order policy, restricted to the cut by per-part limits, so the
// snapshot is byte-identical to what a post-hoc OrderTime query of the
// same messages would deliver. The cut hands the tail the journal
// position and each topic's stride phase.
//
// Phase 2 (tail): drain the recorder's journal from the cut position,
// in write order, reading each payload back through the same
// cursor.deliver as every other policy — one extent per topic part per
// batch (tailBatch flushes the writers' append buffers first, so the
// bytes are in the data file, each part's batch adjacent). Between
// writes the query blocks on the subscription's notify channel; it
// wakes for new messages, for the recording sealing (clean return), or
// for context cancellation; Exec.Idle runs before each block.
//
// Messages are delivered exactly once: the cut is taken under the same
// lock that orders writes, so limits and the journal from pos
// partition the recording with no overlap and no gap.
//
// On a bag that is not live-wired (complete live bag, classic bag)
// there is no tail: the chronological snapshot is the whole recording.
func (q *query) follow(ctx context.Context, parent obs.Span) (err error) {
	sp := parent.ChildOp(q.bag.ops.follow)
	defer func() { sp.EndErr(err) }()
	defer panicOnFault(panicOnFault(true))
	rec := q.bag.rec
	if rec == nil {
		return q.readTime(sp)
	}
	f, err := rec.subscribe()
	if err != nil {
		return err
	}
	defer rec.unsubscribe(f)
	// Seeded with the requested topics, phases doubles as the tail's
	// topic filter: under a topic list, exactly its names are keys.
	q.limits, q.phases = f.limits, make(map[string]int, len(q.Topics))
	for _, name := range q.Topics {
		q.phases[name] = 0
	}
	if err := q.readTime(sp); err != nil {
		return err
	}
	// The tail delivers each batch with the merge's call shape: the
	// batch's survivors are appended to their cursors' selections, then
	// delivered one per call in journal order, so deliver looks ahead
	// over a message's physical neighbours and each cursor reads one
	// extent per batch. Cursors interleave as in the merge, so each takes
	// a scratch of its own when it is made.
	//
	// One cursor per topic, keyed by name: rotation only moves forward,
	// so when a topic's entries land in a newer part its previous cursor
	// is finished, and it closes at the end of the batch that last
	// delivered from it. Open parts are bounded by topics, not segments.
	// The parts are the recorder's, still being written: read through
	// their files and their writers' buffers, never mapped, so nothing
	// here can fault for a settle to recover.
	cursors := map[string]*cursor{}
	var finished []*cursor
	defer func() {
		for _, c := range cursors {
			c.close()
		}
		for _, c := range finished {
			c.close()
		}
	}()
	var (
		batch []tailRef
		order []*cursor // the batch's survivors' cursors, in journal order
	)
	for {
		refs, sealed, err := rec.tailBatch(f, batch)
		if err != nil {
			return err
		}
		batch, order = refs[:0], order[:0]
		for _, ref := range refs {
			topic := ref.t.Name()
			phase, wanted := q.phases[topic]
			if !wanted && len(q.Topics) > 0 {
				continue
			}
			c := cursors[topic]
			if c == nil || c.t != ref.t {
				if c != nil {
					finished = append(finished, c)
				}
				c = &cursor{q: q, t: ref.t, merged: true, scratch: scratchPool.Get().(*msgScratch)}
				cursors[topic] = c
			}
			c.d.EntriesScanned++
			if ref.e.Time.Before(q.Start) || q.End.Before(ref.e.Time) {
				continue
			}
			if q.Stride > 1 {
				if q.phases[topic] = (phase + 1) % q.Stride; phase != 0 {
					continue
				}
			}
			c.sel = c.sel.Append(ref.e)
			order = append(order, c)
		}
		for _, c := range order {
			if err := c.deliver(1); err != nil {
				return err
			}
			if c.pos == c.sel.Len() {
				c.sel, c.pos = c.sel.Reset(0), 0 // drained: the next batch reuses it
			}
		}
		for _, c := range finished {
			c.close()
		}
		finished = finished[:0]
		if sealed {
			return nil // batch reached the journal's final entry
		}
		if len(refs) == 0 {
			if err := q.idle(nil); err != nil {
				return err
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-f.ch:
			}
		}
	}
}
