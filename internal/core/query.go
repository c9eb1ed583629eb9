package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bagio"
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
// spec across the core API: Bag.Query, MultiBag.Query and BORA.Rebag
// all take it. The zero value reads every message of every topic,
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
	// it. Unlike Predicate it is part of the serializable TransformSpec
	// form, so content-addressed dataset builds can hash it. 0 and 1
	// deliver everything; negative is an error.
	Stride int
	// Predicate, when non-nil, is consulted per message before the
	// callback; messages it rejects are read but not delivered. Stride
	// applies first: the predicate sees only stride-surviving messages.
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
func (bag *Bag) QuerySpanContext(ctx context.Context, parent obs.Span, spec QuerySpec, fn func(MessageRef) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	end := spec.End
	if end.IsZero() {
		end = bagio.MaxTime
	}
	if end.Before(spec.Start) {
		return fmt.Errorf("bora: end time %v before start time %v", end, spec.Start)
	}
	if spec.Stride < 0 {
		return fmt.Errorf("bora: negative stride %d", spec.Stride)
	}
	if pred := spec.Predicate; pred != nil {
		inner := fn
		fn = func(m MessageRef) error {
			if !pred(m) {
				return nil
			}
			return inner(m)
		}
	}
	if stride := spec.Stride; stride > 1 {
		// Per-topic downsampling. The wrap sits outside the predicate
		// (stride counts in-window messages, the predicate filters the
		// survivors) and the counters are mutex-guarded because parallel
		// plans deliver from several goroutines.
		inner := fn
		var mu sync.Mutex
		counts := map[string]int{}
		fn = func(m MessageRef) error {
			mu.Lock()
			n := counts[m.Conn.Topic]
			counts[m.Conn.Topic] = n + 1
			mu.Unlock()
			if n%stride != 0 {
				return nil
			}
			return inner(m)
		}
	}
	if done := ctx.Done(); done != nil {
		// The check wraps outside the predicate so it counts messages
		// read, not messages delivered: a query whose predicate rejects
		// everything still notices cancellation. The counter is atomic
		// because parallel plans deliver from several goroutines.
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
	// context exactly once per query and threaded down by pointer — the
	// per-message hot loops never touch the context.
	aq := obs.QueryFromContext(ctx)
	switch {
	case spec.Follow:
		if spec.Workers != 0 {
			return fmt.Errorf("bora: Follow queries are serial; Workers must be 0, got %d", spec.Workers)
		}
		return bag.followQuery(ctx, parent, aq, spec.Topics, spec.Start, end, spec.Idle, fn)
	case spec.Order == OrderTime:
		if spec.Workers != 0 {
			return fmt.Errorf("bora: OrderTime queries are serial; Workers must be 0, got %d", spec.Workers)
		}
		return bag.readMessagesChrono(parent, aq, spec.Topics, spec.Start, end, nil, fn)
	case spec.Workers != 0:
		return bag.readParallel(parent, aq, spec.Topics, spec.Start, end, spec.Workers, fn)
	default:
		return bag.readSerial(parent, aq, spec.Topics, spec.Start, end, fn)
	}
}

// readSerial streams the resolved topics one after another. The span
// keeps the historical op names: core.read for a full-axis scan
// (Fig 7), core.read_time when the time index bounds the scan (Fig 8).
func (bag *Bag) readSerial(parent obs.Span, aq *obs.ActiveQuery, topics []string, start, end bagio.Time, fn func(MessageRef) error) (err error) {
	op := bag.ops.read
	if start != bagio.MinTime || end != bagio.MaxTime {
		op = bag.ops.readTime
	}
	sp := parent.ChildOp(op)
	defer func() { sp.EndErr(err) }()
	chains, err := bag.chains(topics, false)
	if err != nil {
		return err
	}
	for _, ch := range chains {
		for _, t := range ch.parts {
			if err := bag.readTopicRange(sp.ChildOp(bag.ops.readTopic), aq, t, start, end, fn); err != nil {
				return err
			}
		}
	}
	return nil
}
