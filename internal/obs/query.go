package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// QueryID identifies one end-to-end query across process boundaries:
// the client mints a random 64-bit trace id when it issues the query
// and sends it (plus the id of its own in-flight span) on the wire, so
// the serving daemon can tag every span, counter and log record of that
// query with the same identity the client logged. The zero QueryID
// means "untraced" — an old client that predates the wire field.
type QueryID struct {
	Trace  uint64 // client-generated random 64-bit query id (0 = untraced)
	Parent uint64 // client-side span id the query ran under (0 = none)
}

// IsZero reports whether the id carries no trace identity.
func (q QueryID) IsZero() bool { return q.Trace == 0 }

// String renders the trace id as fixed-width hex — the form used in
// slow-query log records and Chrome trace args, chosen over a JSON
// number because 64-bit values lose precision in float64 decoders.
func (q QueryID) String() string { return fmt.Sprintf("%016x", q.Trace) }

// NewTraceID returns a random non-zero 64-bit trace id.
func NewTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// ActiveQuery accumulates one in-flight query's resource attribution:
// the counters deep layers charge to whichever query caused the work.
// It travels down the stack inside a context.Context (ContextWithQuery)
// so the plumbing costs one context value per query, not a signature
// change per layer. All fields are atomics, so any goroutine may charge
// or read them; a nil *ActiveQuery is a valid no-op sink, so
// attribution points record unconditionally.
type ActiveQuery struct {
	ID QueryID

	Messages    atomic.Int64 // messages delivered to the client
	Bytes       atomic.Int64 // payload bytes delivered
	IndexProbes atomic.Int64 // index entries examined across topics
	DataReads   atomic.Int64 // reads issued against topic data files (one per extent, whatever the reader)

	QueueWaitNs   atomic.Int64 // request receipt -> first byte streamed
	CreditStallNs atomic.Int64 // time parked waiting for client CREDIT
}

// AddIndexProbes charges n examined index entries. Nil-safe.
func (q *ActiveQuery) AddIndexProbes(n int64) {
	if q != nil {
		q.IndexProbes.Add(n)
	}
}

// AddDataReads charges n reads issued against topic data. Nil-safe.
func (q *ActiveQuery) AddDataReads(n int64) {
	if q != nil {
		q.DataReads.Add(n)
	}
}

// AddCreditStall charges time spent parked on client flow control.
// Nil-safe.
func (q *ActiveQuery) AddCreditStall(d time.Duration) {
	if q != nil {
		q.CreditStallNs.Add(int64(d))
	}
}

// queryKey is the context key ActiveQuery travels under.
type queryKey struct{}

// ContextWithQuery returns ctx carrying q, attributing all query-path
// work under ctx to q. This is the single per-query allocation the
// attribution plumbing is allowed on the hot path.
func ContextWithQuery(ctx context.Context, q *ActiveQuery) context.Context {
	return context.WithValue(ctx, queryKey{}, q)
}

// QueryFromContext returns the ActiveQuery ctx carries, or nil. The
// query path calls this once per query, never per message.
func QueryFromContext(ctx context.Context) *ActiveQuery {
	q, _ := ctx.Value(queryKey{}).(*ActiveQuery)
	return q
}

// spanKey is the context key a parent span travels under.
type spanKey struct{}

// InContext returns ctx carrying s, so the spans a query under ctx
// starts nest under s (a pool or server operation wrapping the read).
func (s Span) InContext(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span ctx carries, or the zero span, under
// which children trace as roots. Like QueryFromContext, once per query.
func SpanFromContext(ctx context.Context) Span {
	s, _ := ctx.Value(spanKey{}).(Span)
	return s
}
