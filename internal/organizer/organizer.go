// Package organizer implements BORA's data organizer (Fig 6 of the
// paper): during a one-time bag duplication, one scanner goroutine reads
// the source bag sequentially while a pool of worker goroutines
// distributes messages to their per-topic sinks on the underlying file
// system ("BORA uses one thread to scan the file and a few other threads
// to distribute messages"). Topics are sharded across workers by hash so
// each topic's messages stay in order.
package organizer

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bagio"
	"repro/internal/obs"
)

// TopicSink receives one topic's messages in order. Implementations are
// only ever called from a single worker goroutine.
type TopicSink interface {
	Append(t bagio.Time, payload []byte) error
	Close() error
}

// Options tune the distribution pipeline.
type Options struct {
	// Workers is the number of distribution goroutines. Zero selects
	// "determined by system specs": GOMAXPROCS-1, at least 1.
	Workers int
	// Obs receives the pipeline's metrics: organizer.dispatch (scanner-side
	// routing latency), organizer.enqueue_stall (time spent blocked on a
	// full worker queue), organizer.worker (per-goroutine pool lifetime),
	// organizer.append (worker-side sink latency), and the
	// organizer.dropped_messages/_bytes counters. Nil disables recording.
	Obs *obs.Registry
	// Parent nests the pipeline's trace spans under an enclosing span
	// (typically core.duplicate): dispatches become its children and each
	// worker goroutine forks its own trace lane from it. The zero Span is
	// fine — spans then trace as roots.
	Parent obs.Span
	// Synchronous runs every append inline on the Dispatch caller's
	// goroutine instead of the worker pool. File contents are identical
	// either way (topics are single-writer), but the total order of
	// back-end operations becomes deterministic — which is what the
	// crash-consistency harness sweeps over.
	Synchronous bool

	// queueDepth is the per-worker channel depth: 64 unless this
	// package's tests shrink it so a full queue (back-pressure, a
	// failure surfacing mid-stream) is reached within a small fixture.
	queueDepth int
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) - 1
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.queueDepth <= 0 {
		o.queueDepth = 64
	}
}

// Stats summarizes a distribution run. Messages, Bytes and PerTopic
// count messages actually appended to their sinks; once a sink failure
// flips the pipeline into drain mode, later items are counted in
// Dropped instead, so Close never reports more work than reached the
// back end.
type Stats struct {
	Messages int64
	Bytes    int64
	Topics   int
	Dropped  int64 // dispatched but never appended (failed or drained)
	PerTopic map[string]int64
}

type workItem struct {
	sink    TopicSink
	topic   string
	time    bagio.Time
	payload []byte
	// buf, when non-nil, is the pooled holder backing payload; the
	// worker recycles it once the item has been appended or dropped.
	buf *[]byte
}

// dispatchBufPool recycles the per-message copies Dispatch makes for
// asynchronous hand-off to workers, so a steady organize run reuses a
// small working set of buffers instead of allocating one per message.
var dispatchBufPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// recycle returns the item's pooled buffer, if any. Call only after
// the payload's last use.
func (it *workItem) recycle() {
	if it.buf != nil {
		dispatchBufPool.Put(it.buf)
		it.buf = nil
		it.payload = nil
	}
}

// Distributor fans messages out to per-topic sinks over a worker pool.
type Distributor struct {
	opts    Options
	create  func(conn *bagio.Connection) (TopicSink, error)
	sinks   map[string]TopicSink
	workers []chan workItem
	wg      sync.WaitGroup
	errMu   sync.Mutex
	err     error
	statsMu sync.Mutex
	stats   Stats
	closed  bool

	parent       obs.Span
	dispatchOp   *obs.Op
	stallOp      *obs.Op
	appendOp     *obs.Op
	workerOp     *obs.Op
	droppedMsgs  *obs.Counter
	droppedBytes *obs.Counter
}

// New starts a distributor whose sinks are created on demand by create
// (called from the scanner goroutine, never concurrently).
func New(create func(conn *bagio.Connection) (TopicSink, error), opts Options) *Distributor {
	opts.fill()
	d := &Distributor{
		opts:         opts,
		create:       create,
		sinks:        map[string]TopicSink{},
		parent:       opts.Parent,
		dispatchOp:   opts.Obs.Op("organizer.dispatch"),
		stallOp:      opts.Obs.Op("organizer.enqueue_stall"),
		appendOp:     opts.Obs.Op("organizer.append"),
		workerOp:     opts.Obs.Op("organizer.worker"),
		droppedMsgs:  opts.Obs.Counter("organizer.dropped_messages"),
		droppedBytes: opts.Obs.Counter("organizer.dropped_bytes"),
	}
	d.stats.PerTopic = map[string]int64{}
	if opts.Synchronous {
		return d
	}
	d.workers = make([]chan workItem, opts.Workers)
	for i := range d.workers {
		ch := make(chan workItem, opts.queueDepth)
		d.workers[i] = ch
		d.wg.Add(1)
		go d.runWorker(ch)
	}
	return d
}

func (d *Distributor) runWorker(ch <-chan workItem) {
	defer d.wg.Done()
	// Each worker forks its own trace lane off the pipeline's parent span,
	// so concurrent workers render as separate timelines; its appends nest
	// under the lane span.
	wsp := d.parent.ForkOp(d.workerOp)
	defer wsp.End()
	for item := range ch {
		if d.failed() {
			d.noteDropped(item)
			item.recycle()
			continue // drain
		}
		sp := wsp.ChildOp(d.appendOp)
		if err := item.sink.Append(item.time, item.payload); err != nil {
			sp.EndErr(err)
			d.fail(err)
			d.noteDropped(item)
			item.recycle()
			continue
		}
		n := int64(len(item.payload))
		item.recycle()
		sp.EndBytes(n)
		d.statsMu.Lock()
		d.stats.Messages++
		d.stats.Bytes += n
		d.stats.PerTopic[item.topic]++
		d.statsMu.Unlock()
	}
}

// noteDropped accounts for an item that was dispatched but will never
// reach its sink.
func (d *Distributor) noteDropped(item workItem) {
	d.statsMu.Lock()
	d.stats.Dropped++
	d.statsMu.Unlock()
	d.droppedMsgs.Inc()
	d.droppedBytes.Add(int64(len(item.payload)))
}

func (d *Distributor) fail(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

func (d *Distributor) failed() bool {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err != nil
}

func topicHash(topic string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(topic); i++ {
		h ^= uint32(topic[i])
		h *= 16777619
	}
	return h
}

// Dispatch routes one message to its topic's worker. The payload is
// copied, so the caller may reuse its buffer. Dispatch is intended to be
// called from a single scanner goroutine.
func (d *Distributor) Dispatch(conn *bagio.Connection, t bagio.Time, payload []byte) error {
	if d.closed {
		return fmt.Errorf("organizer: distributor is closed")
	}
	if err := d.firstErr(); err != nil {
		return err
	}
	sp := d.parent.ChildOp(d.dispatchOp)
	sink, ok := d.sinks[conn.Topic]
	if !ok {
		var err error
		sink, err = d.create(conn)
		if err != nil {
			d.fail(err)
			sp.EndErr(err)
			return err
		}
		d.sinks[conn.Topic] = sink
		d.statsMu.Lock()
		d.stats.Topics++
		d.statsMu.Unlock()
	}
	if d.opts.Synchronous {
		asp := sp.ChildOp(d.appendOp)
		if err := sink.Append(t, payload); err != nil {
			asp.EndErr(err)
			d.fail(err)
			sp.EndErr(err)
			d.noteDropped(workItem{topic: conn.Topic, payload: payload})
			return err
		}
		asp.EndBytes(int64(len(payload)))
		d.statsMu.Lock()
		d.stats.Messages++
		d.stats.Bytes += int64(len(payload))
		d.stats.PerTopic[conn.Topic]++
		d.statsMu.Unlock()
		sp.EndBytes(int64(len(payload)))
		return nil
	}
	bp := dispatchBufPool.Get().(*[]byte)
	*bp = append((*bp)[:0], payload...)
	item := workItem{sink: sink, topic: conn.Topic, time: t, payload: *bp, buf: bp}
	ch := d.workers[topicHash(conn.Topic)%uint32(len(d.workers))]
	select {
	case ch <- item:
	default:
		// Queue full: the scanner outruns this worker. Record how long the
		// Fig 6 pipeline stalls — the back-pressure the paper's "a few other
		// threads" sizing argument is about.
		stall := sp.ChildOp(d.stallOp)
		ch <- item
		stall.End()
	}
	sp.EndBytes(int64(len(payload)))
	return nil
}

func (d *Distributor) firstErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// Close drains the pipeline, closes every sink, and returns the first
// error encountered anywhere in the run together with the run's stats.
func (d *Distributor) Close() (Stats, error) {
	if d.closed {
		return d.statsCopy(), fmt.Errorf("organizer: distributor already closed")
	}
	d.closed = true
	for _, ch := range d.workers {
		close(ch)
	}
	d.wg.Wait()
	for topic, sink := range d.sinks {
		if err := sink.Close(); err != nil && d.err == nil {
			d.err = fmt.Errorf("organizer: close sink for %q: %w", topic, err)
		}
	}
	return d.statsCopy(), d.err
}

// statsCopy snapshots the run stats; after Close has joined the workers
// the lock is uncontended.
func (d *Distributor) statsCopy() Stats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	s := d.stats
	s.PerTopic = make(map[string]int64, len(d.stats.PerTopic))
	for k, v := range d.stats.PerTopic {
		s.PerTopic[k] = v
	}
	return s
}
