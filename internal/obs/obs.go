// Package obs is BORA's unified observability layer: a stdlib-only
// metrics and lightweight-tracing substrate for the hot paths whose op
// counts the paper's evaluation argues about (seeks, sequential bytes,
// metadata round trips — Figs 9–18). It follows the "multipurpose
// low-overhead tracing" philosophy of ros2_tracing: instrumentation is
// always compiled in, near-free when disabled, and cheap enough to leave
// on in production.
//
// The design is global-free: callers create a *Registry and thread it
// through options structs. A nil *Registry (and every instrument handle
// obtained from one) is valid and turns all recording into no-ops, so
// packages instrument unconditionally and pay only a nil check when
// observability is off.
//
// Two instrument kinds exist:
//
//   - Counter — a monotonically increasing atomic int64.
//   - Op — a named operation accumulating call count, error count, byte
//     volume, and a log₂-bucketed latency histogram. Latency is recorded
//     through value-type Spans (obs.Start("core.duplicate") ... sp.End())
//     or via Observe for externally measured durations (e.g. the virtual
//     clocks of internal/simio).
//
// Snapshot freezes a registry into an inert, encodable value with JSON
// and aligned-text renderings; cmd/borabag's -metrics flag and
// cmd/borabench's per-experiment sidecars are thin wrappers over it.
//
// A Registry can additionally carry a Tracer (AttachTracer): spans then
// emit begin/end events — with parent span ids (Span.Child/ChildOp) and
// per-lane track ids (Span.ForkOp) — into a bounded ring buffer
// exportable as Chrome trace-event JSON (WriteChromeTrace), loadable in
// chrome://tracing or Perfetto. cmd/borabag's -trace flag and
// cmd/borabench's per-experiment trace sidecars are built on it; the
// virtual clocks of internal/simio feed the same tracer with sim-time
// timestamps through the Tracer's raw Begin/End API.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of log₂ latency buckets an Op keeps. Bucket i
// holds durations d with bits.Len64(d ns) == i, i.e. bucket 0 is exactly
// 0ns and bucket i≥1 spans [2^(i-1), 2^i) ns; 64 buckets cover every
// representable duration.
const NumBuckets = 65

// Registry holds named instruments. Create one with NewRegistry; a nil
// *Registry is a valid no-op sink. All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	ops      map[string]*Op
	epoch    time.Time
	tracer   atomic.Pointer[Tracer]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		ops:      map[string]*Op{},
		epoch:    time.Now(),
	}
}

// now returns nanoseconds since the registry epoch (monotonic). Span
// timestamps on this timeline double as trace-event timestamps.
func (r *Registry) now() int64 { return int64(time.Since(r.epoch)) }

// AttachTracer routes span begin/end events to t in addition to the
// metric histograms. Attach before the run starts; a nil tracer (the
// default) keeps spans metric-only at the cost of one atomic nil-check.
func (r *Registry) AttachTracer(t *Tracer) {
	if r != nil {
		r.tracer.Store(t)
	}
}

// Tracer returns the attached tracer (nil when tracing is off or the
// registry is nil).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer.Load()
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil, which is itself a valid no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns nil, which is itself a valid no-op gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Op returns the named operation, creating it on first use. On a nil
// registry it returns nil, which is itself a valid no-op operation.
func (r *Registry) Op(name string) *Op {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	o, ok := r.ops[name]
	r.mu.RUnlock()
	if ok {
		return o
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if o, ok = r.ops[name]; ok {
		return o
	}
	o = newOp(r, name)
	r.ops[name] = o
	return o
}

// Start begins a span on the named operation; shorthand for
// r.Op(name).Start(). Hot paths should resolve the *Op once and call
// Start on the handle instead.
func (r *Registry) Start(name string) Span {
	return r.Op(name).Start()
}

// Counter is a monotonically increasing atomic counter. The nil
// *Counter records nothing.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a level instrument: a value that goes up and down (cache
// residency, queue depth, open handles), as opposed to Counter's
// monotonic total. The nil *Gauge records nothing.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current level (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Op accumulates metrics for one named operation: how often it ran, how
// often it failed, how many payload bytes it moved, and how long it took
// (sum, min, max, and a log₂ histogram). The nil *Op records nothing.
// Count may exceed the histogram total when events are recorded through
// Add (counted but untimed).
type Op struct {
	name    string
	reg     *Registry
	count   atomic.Int64
	errs    atomic.Int64
	bytes   atomic.Int64
	durSum  atomic.Int64 // nanoseconds
	durMin  atomic.Int64 // nanoseconds; MaxInt64 until first timed event
	durMax  atomic.Int64 // nanoseconds
	buckets [NumBuckets]atomic.Int64
}

func newOp(reg *Registry, name string) *Op {
	o := &Op{name: name, reg: reg}
	o.durMin.Store(math.MaxInt64)
	return o
}

// Name returns the operation's registered name ("" on a nil Op).
func (o *Op) Name() string {
	if o == nil {
		return ""
	}
	return o.name
}

// Start begins a root span on o. On a nil Op the returned zero Span is
// a no-op and no clock is read. When the registry carries a tracer, the
// span also emits a begin event on the main track; use Span.Child /
// Span.ForkOp to build a hierarchy under it.
func (o *Op) Start() Span {
	return Span{}.child(o, false)
}

// StartQuery is Start with the span (and every child span derived from
// it) attributed to a query trace id: the tracer records qid on each
// begin edge, so a whole server-side query subtree can be matched to
// the client span that issued it (see Tracer.BeginQuery and the
// borabag trace-merge subcommand). qid 0 is plain Start.
func (o *Op) StartQuery(qid uint64) Span {
	return Span{qid: qid}.child(o, false)
}

// Observe records one completed event with an externally measured
// duration and byte volume.
func (o *Op) Observe(d time.Duration, bytes int64) {
	if o == nil {
		return
	}
	o.record(d, bytes, false)
}

// Add records n untimed events moving bytes payload bytes — for per-item
// hot paths (e.g. per-message container reads) where even two clock
// reads per event would be measurable.
func (o *Op) Add(n, bytes int64) {
	if o == nil {
		return
	}
	o.count.Add(n)
	if bytes != 0 {
		o.bytes.Add(bytes)
	}
}

func (o *Op) record(d time.Duration, bytes int64, failed bool) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	o.count.Add(1)
	if failed {
		o.errs.Add(1)
	}
	if bytes != 0 {
		o.bytes.Add(bytes)
	}
	o.durSum.Add(ns)
	o.buckets[bits.Len64(uint64(ns))].Add(1)
	for {
		cur := o.durMin.Load()
		if ns >= cur || o.durMin.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := o.durMax.Load()
		if ns <= cur || o.durMax.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Span is an in-flight timed operation. The zero Span (from a nil Op or
// Registry) is a valid no-op. Spans are values: copy them freely, end
// them exactly once. A span carries its trace context (id and track)
// when the registry has a tracer attached; Child and ForkOp create nested
// spans under it — Child on the same track, ForkOp on a fresh lane for
// streams that run concurrently with their parent.
type Span struct {
	op    *Op
	start int64 // ns since the registry epoch
	tr    *Tracer
	id    uint64
	track uint64
	qid   uint64 // query trace id; inherited by children (0 = none)
}

// SpanID returns the span's trace event id (0 when no tracer is
// attached or the span is the zero span). Clients send it on the wire
// as the query's parent span so cross-process traces can be stitched.
func (s Span) SpanID() uint64 { return s.id }

// Registry returns the registry the span records to (nil for the zero
// span), letting deep layers resolve additional ops without threading
// the registry separately.
func (s Span) Registry() *Registry {
	if s.op == nil {
		return nil
	}
	return s.op.reg
}

// Child begins a nested span on the named op of the parent's registry,
// on the parent's track. On a zero parent it returns a zero (no-op)
// span. Hot paths should resolve the *Op once and use ChildOp.
func (s Span) Child(name string) Span {
	if s.op == nil {
		return Span{}
	}
	return s.child(s.op.reg.Op(name), false)
}

// ChildOp begins a nested span on a pre-resolved op, on the parent's
// track. Unlike Child it records metrics even when the parent is the
// zero span (the trace span then becomes a root), so layers can accept
// an optional parent without losing instrumentation.
func (s Span) ChildOp(op *Op) Span { return s.child(op, false) }

// ForkOp is ChildOp on a freshly allocated track (lane): use it for the
// root span of work that runs concurrently with its parent — a worker
// goroutine, a parallel per-topic stream — so each concurrent stream
// renders as its own timeline lane with a stable, disjoint track id.
func (s Span) ForkOp(op *Op) Span { return s.child(op, true) }

func (s Span) child(op *Op, fork bool) Span {
	if op == nil {
		return Span{}
	}
	c := Span{op: op, start: op.reg.now(), qid: s.qid}
	if tr := op.reg.tracer.Load(); tr != nil {
		var parent, track uint64
		if s.tr == tr { // inherit context only within the same trace
			parent, track = s.id, s.track
		}
		if fork {
			track = tr.NewTrack()
		}
		c.tr = tr
		c.track = track
		c.id = tr.BeginQuery(op.name, c.start, parent, track, s.qid)
	}
	return c
}

// End records the span with no payload bytes.
func (s Span) End() { s.EndBytes(0) }

// EndBytes records the span together with the payload bytes it moved.
func (s Span) EndBytes(bytes int64) {
	if s.op == nil {
		return
	}
	end := s.op.reg.now()
	s.op.record(time.Duration(end-s.start), bytes, false)
	if s.tr != nil {
		s.tr.End(s.op.name, end, s.id, s.track)
	}
}

// EndErr records the span, counting it as failed when err is non-nil.
// The span's Count and Errors each increment exactly once.
func (s Span) EndErr(err error) {
	if s.op == nil {
		return
	}
	end := s.op.reg.now()
	s.op.record(time.Duration(end-s.start), 0, err != nil)
	if s.tr != nil {
		s.tr.End(s.op.name, end, s.id, s.track)
	}
}

// BucketLow returns the inclusive lower bound (in nanoseconds) of
// histogram bucket i.
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}
