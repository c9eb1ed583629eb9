package core

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/obs"
)

// Order selects the cross-topic delivery order of a Query.
type Order int

const (
	// OrderTopic (the default) yields messages grouped by topic in the
	// order requested, each topic in timestamp order — the
	// layout-friendly order that streams every topic file sequentially
	// (Fig 7). Only OrderTopic queries may run parallel plans.
	OrderTopic Order = iota
	// OrderTime yields messages in global timestamp order across
	// topics, merging the per-topic streams through a k-way heap. It
	// exists for consumers (e.g. SLAM replays) that need cross-topic
	// chronology; pure extraction workloads should prefer OrderTopic.
	OrderTime
)

// QuerySpec describes one read over an open bag. It is the single query
// spec across the core API: Bag.Query and BORA.Rebag both take it. The zero value reads every message of every topic,
// grouped by topic.
type QuerySpec struct {
	// Topics to read; empty selects every topic in the bag.
	Topics []string
	// Start and End bound the query to [Start, End] inclusive. The
	// zero Start is the beginning of time; a zero End means
	// bagio.MaxTime, so a zero window is a full-axis scan.
	Start bagio.Time
	End   bagio.Time
	// Order selects the cross-topic delivery order.
	Order Order
	// Workers selects the execution plan for OrderTopic queries: 0
	// streams the topics serially; any other value fans the per-topic
	// streams over a worker pool of that size (negative means
	// GOMAXPROCS). With a pool the callback may fire from several
	// goroutines at once — it must be goroutine-safe — and the
	// cross-topic interleaving is arbitrary. Must be 0 with OrderTime:
	// a chronological merge is inherently serial.
	Workers int
	// Stride, when > 1, delivers every Stride-th message of each topic
	// — the topic's first in-window message, then every Stride-th after
	// it, counted in append order, so every Order, Workers and Follow
	// setting delivers the same messages. Unlike Predicate it is part of
	// the serializable TransformSpec form, so content-addressed dataset
	// builds can hash it. 0 and 1 deliver everything; negative is an
	// error.
	Stride int
	// Predicate, when non-nil, is consulted per message before the
	// callback; messages it rejects are read but not delivered. Stride
	// applies first: the predicate sees only stride-surviving messages
	// (the rest are never read).
	Predicate func(MessageRef) bool
	// Idle, when non-nil, is called by a Follow query each time it has
	// delivered everything recorded so far and is about to block until
	// the next write: the moment for a callback that batches what it is
	// handed (borad's frame batcher) to push the batch out. An error
	// ends the query. No other plan calls it — they block on nothing but
	// I/O — and neither does Follow on a bag that is not recording.
	Idle func() error
	// Follow tails a bag that is still recording: the query first
	// delivers a consistent snapshot of everything recorded before it
	// subscribed (in timestamp order, like OrderTime), then streams
	// each new message in write order as it lands, blocking between
	// writes. It returns only when the recording seals or the context
	// is cancelled — pass a context (QueryContext) to bound it. On a
	// bag that is not recording, Follow delivers the chronological
	// snapshot and returns. Follow queries are serial: Workers must be
	// 0, and Order is ignored.
	Follow bool
}

// cancelCheckBatch is how many messages a cancellable query reads
// between context checks: frequent enough that an abandoned stream
// stops reading from disk promptly, infrequent enough that the check
// (one atomic add, one channel poll) stays off the per-message profile.
const cancelCheckBatch = 64

// Query reads the bag per spec, invoking fn for every delivered
// message. The plan — and the obs op it is recorded under — follows
// from the spec: a full-axis serial scan is core.read, a time-bounded
// serial scan is core.read_time (the coarse window index prunes the
// per-topic scans), Workers != 0 is core.read_parallel, and
// OrderTime is core.read_chrono.
//
// The MessageRef passed to fn borrows its Data: the bytes are valid
// only until fn returns (see the MessageRef ownership contract). Every
// plan reuses per-stream scratch buffers — and serves block-cache hits
// as direct cache slices — so the steady-state per-message cost of the
// hot loop is zero allocations.
func (bag *Bag) Query(spec QuerySpec, fn func(MessageRef) error) error {
	return bag.QuerySpanContext(context.Background(), obs.Span{}, spec, fn)
}

// QueryContext is Query bound to ctx: cancellation is checked once per
// message batch, so a canceled query (a disconnected network client, an
// expired deadline) stops reading from disk within cancelCheckBatch
// messages and returns ctx.Err().
func (bag *Bag) QueryContext(ctx context.Context, spec QuerySpec, fn func(MessageRef) error) error {
	return bag.QuerySpanContext(ctx, obs.Span{}, spec, fn)
}

// QuerySpanContext is QueryContext with its span nested under parent
// (e.g. a pool or vfs operation wrapping the read). A zero parent traces
// it as a root.
//
// Every query runs the same way: the spec is validated into a query,
// each topic part is resolved to a selection from its index alone
// (cursor.selectEntries), and one of three ordering policies — topic
// order, time order, Follow — drains the resulting cursors through
// cursor.deliver.
func (bag *Bag) QuerySpanContext(ctx context.Context, parent obs.Span, spec QuerySpec, fn func(MessageRef) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if spec.End.IsZero() {
		spec.End = bagio.MaxTime
	}
	if spec.End.Before(spec.Start) {
		return fmt.Errorf("bora: end time %v before start time %v", spec.End, spec.Start)
	}
	if spec.Stride < 0 {
		return fmt.Errorf("bora: negative stride %d", spec.Stride)
	}
	spec.Stride = max(spec.Stride, 1)
	if pred := spec.Predicate; pred != nil {
		inner := fn
		fn = func(m MessageRef) error {
			if !pred(m) {
				return nil
			}
			return inner(m)
		}
	}
	if done := ctx.Done(); done != nil {
		// The check wraps outside the predicate so it counts messages
		// read, not messages delivered: a query whose predicate rejects
		// everything still notices cancellation. The counter is atomic
		// because pooled streams deliver from several goroutines.
		inner := fn
		var n atomic.Int64
		fn = func(m MessageRef) error {
			if n.Add(1)%cancelCheckBatch == 1 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			return inner(m)
		}
	}
	// Per-query attribution: the ActiveQuery (if any) is fetched from the
	// context exactly once per query and carried by pointer — the
	// per-message hot loops never touch the context.
	q := &query{QuerySpec: spec, bag: bag, aq: obs.QueryFromContext(ctx), fn: fn}
	switch {
	case spec.Follow:
		if spec.Workers != 0 {
			return fmt.Errorf("bora: Follow queries are serial; Workers must be 0, got %d", spec.Workers)
		}
		return q.follow(ctx, parent)
	case spec.Order == OrderTime:
		if spec.Workers != 0 {
			return fmt.Errorf("bora: OrderTime queries are serial; Workers must be 0, got %d", spec.Workers)
		}
		return q.readTime(parent)
	default:
		return q.readTopics(parent)
	}
}

// query is a validated QuerySpec (End and Stride normalized) bound to
// its bag: what selection and every ordering policy read.
type query struct {
	QuerySpec
	bag *Bag
	aq  *obs.ActiveQuery
	fn  func(MessageRef) error // the callback behind the predicate and cancellation wraps
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

// readTopics is the topic-order policy: each chain streams its parts in
// segment order, which preserves per-topic append order even when the
// topic spans live segments, and chains are handed to a pool of workers
// in request order. Workers == 0 is that pool with one worker, the
// calling goroutine; any other size fans the chains out — the "multiple
// levels of parallelism in a file system can be exploited to further
// improve I/O performance" note of Fig 7 — and fails fast: the first
// error stops the hand-out and ends in-flight streams at their next
// message, so a poisoned topic cannot force the remaining topics to
// stream in full (nor fn to keep firing) before the error surfaces.
//
// The span keeps the historical op names: core.read for a full-axis
// serial scan (Fig 7), core.read_time when the time index bounds it
// (Fig 8), core.read_parallel for a pool.
//
// Each worker draws one scratch buffer from the shared scratchPool, so
// concurrent streams never share a read buffer and steady-state
// streaming stays allocation-free across queries. The borrowed-Data
// contract consequently holds per callback invocation even though fn
// fires from several goroutines.
func (q *query) readTopics(parent obs.Span) (err error) {
	op := q.bag.ops.read
	if q.Workers != 0 {
		op = q.bag.ops.readPooled
	} else if q.bounded() {
		op = q.bag.ops.readTime
	}
	sp := parent.ChildOp(op)
	defer func() { sp.EndErr(err) }()
	chains, err := q.bag.chains(q.Topics, false)
	if err != nil {
		return err
	}
	workers := q.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(chains)))
	var (
		next   atomic.Int64          // the next chain to hand out
		failed atomic.Pointer[error] // the run's first error; set means stop
		wg     sync.WaitGroup
	)
	// A part's core.read_topic span is a child of the policy's, or — for
	// a pooled stream — a fork, which gives each concurrent stream its
	// own trace lane with a stable, disjoint track id.
	startSpan := sp.ChildOp
	if workers > 1 {
		startSpan = sp.ForkOp
		// Checked on every delivery: once a topic fails, in-flight streams
		// end at their next message instead of draining in full.
		inner := q.fn
		q.fn = func(m MessageRef) error {
			if first := failed.Load(); first != nil {
				return *first
			}
			return inner(m)
		}
	}
	worker := func() {
		defer wg.Done()
		scratch := scratchPool.Get().(*msgScratch)
		defer scratchPool.Put(scratch)
		for failed.Load() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(chains) {
				return
			}
			phase := 0
			for _, t := range chains[i].parts {
				if err := q.readPart(startSpan(q.bag.ops.readTopic), t, &phase, scratch); err != nil {
					failed.CompareAndSwap(nil, &err)
					break
				}
			}
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go worker()
	}
	worker()
	wg.Wait()
	if first := failed.Load(); first != nil {
		return *first
	}
	return nil
}

// readPart streams one part's selection in append order under sp, the
// part's already-started core.read_topic span, and ends it.
func (q *query) readPart(sp obs.Span, t *container.Topic, phase *int, scratch *msgScratch) error {
	c := &cursor{q: q, t: t, scratch: scratch}
	err := c.selectEntries(sp, phase)
	if err == nil {
		err = c.deliver(c.entries, len(c.entries))
	}
	c.close()
	if err != nil {
		sp.EndErr(err)
	} else {
		sp.EndBytes(c.d.BytesRead)
	}
	return err
}

// readTime is the time-order policy: messages of the requested topics
// in global timestamp order, merging the per-part cursors of every
// chain through a k-way heap. Under a snapshot cut (q.limits, from a
// Follow subscription) each part selects from at most its limit
// entries and unknown topics resolve leniently — together that
// restricts the merge to exactly the messages recorded before the
// subscription.
func (q *query) readTime(parent obs.Span) (err error) {
	sp := parent.ChildOp(q.bag.ops.readChrono)
	defer func() { sp.EndErr(err) }()
	chains, err := q.bag.chains(q.Topics, q.limits != nil)
	if err != nil {
		return err
	}
	// One scratch serves every read of the merge that lasts one message
	// (block-cache readers): the callback's borrow of the previous payload
	// ends before the next read overwrites it. A cursor reading extents
	// takes a buffer of its own when it opens (cursor.deliver).
	scratch := scratchPool.Get().(*msgScratch)
	defer scratchPool.Put(scratch)
	var h mergeHeap
	defer func() {
		for _, c := range h {
			c.close()
		}
	}()
	for _, ch := range chains {
		phase := 0
		for _, t := range ch.parts {
			c := &cursor{q: q, t: t, scratch: scratch, merged: true}
			err := c.selectEntries(sp, &phase)
			if err != nil || len(c.entries) == 0 {
				c.close()
				if err != nil {
					return err
				}
				continue
			}
			// Parts recorded chronologically are already in time order;
			// only an out-of-order part is copied (the selection may be
			// the topic's shared slice) and sorted, stably, so equal
			// stamps keep append order.
			less := func(i, j int) bool { return c.entries[i].Time.Before(c.entries[j].Time) }
			if !sort.SliceIsSorted(c.entries, less) {
				c.entries = append([]container.IndexEntry(nil), c.entries...)
				sort.SliceStable(c.entries, less)
			}
			c.ord = len(h)
			h = append(h, c)
		}
		if q.phases != nil {
			q.phases[ch.name] = phase
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		c := h[0]
		if err := c.deliver(c.entries[c.pos:], 1); err != nil {
			return err
		}
		if c.pos++; c.pos < len(c.entries) {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h).(*cursor).close()
		}
	}
	return nil
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
// cursor.deliver as every other policy (the bytes are on disk — and in
// the page cache — before the journal entry is published). Between
// writes the query blocks on the subscription's notify channel; it
// wakes for new messages, for the recording sealing (clean return), or
// for context cancellation; QuerySpec.Idle runs before each block.
//
// Messages are delivered exactly once: the cut is taken under the same
// lock that orders writes, so limits and journal[pos:] partition the
// recording with no overlap and no gap.
//
// On a bag that is not live-wired (complete live bag, classic bag)
// there is no tail: the chronological snapshot is the whole recording.
func (q *query) follow(ctx context.Context, parent obs.Span) (err error) {
	sp := parent.ChildOp(q.bag.ops.follow)
	defer func() { sp.EndErr(err) }()
	rec := q.bag.rec
	if rec == nil {
		return q.readTime(sp)
	}
	f := rec.subscribe()
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
	// One cursor per topic part the tail touches — parts appear as
	// segments rotate — and one scratch for the whole tail: delivery is
	// strictly one message at a time.
	cursors := map[*container.Topic]*cursor{}
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	scratch := scratchPool.Get().(*msgScratch)
	defer scratchPool.Put(scratch)
	pos := f.pos
	var batch []tailRef
	for {
		refs, sealed := rec.tailBatch(pos, batch)
		batch = refs[:0]
		pos += len(refs)
		for _, ref := range refs {
			topic := ref.t.Name()
			phase, wanted := q.phases[topic]
			if !wanted && len(q.Topics) > 0 {
				continue
			}
			c := cursors[ref.t]
			if c == nil {
				c = &cursor{q: q, t: ref.t, scratch: scratch}
				cursors[ref.t] = c
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
			if err := c.deliver([]container.IndexEntry{ref.e}, 1); err != nil {
				return err
			}
		}
		if sealed {
			return nil // batch reached the journal's final entry
		}
		if len(refs) == 0 {
			if q.Idle != nil {
				if err := q.Idle(); err != nil {
					return err
				}
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-f.ch:
			}
		}
	}
}
