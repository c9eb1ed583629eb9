package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultTraceCapacity is the event-ring size NewTracer selects when the
// caller passes a non-positive capacity: 64k events ≈ 32k spans, a few
// MB of memory, enough for a full duplicate-then-query run at the
// per-chunk/per-batch granularity the stack instruments.
const DefaultTraceCapacity = 1 << 16

// Event is one recorded trace event: the begin or end edge of a span.
// Ts is in nanoseconds on the tracer's timeline — real time relative to
// the registry epoch for live spans, virtual time for simio-driven
// spans.
type Event struct {
	Name   string
	Begin  bool
	Ts     int64
	ID     uint64 // span id; begin/end edges of one span share it
	Parent uint64 // parent span id (0 for roots), set on begin edges
	Track  uint64 // rendering lane (Chrome tid); 0 is the main track
	Qid    uint64 // query trace id the span is attributed to (0 = none)
}

// Tracer records span begin/end events into a bounded ring buffer. It
// follows the same philosophy as the rest of the package: a nil *Tracer
// is a valid no-op sink, attachment is optional (Registry.AttachTracer),
// and a registry without a tracer pays only an atomic nil-check per
// span. When the ring wraps, the oldest events are overwritten and
// counted as dropped; the exporter drops the resulting half-spans so
// the emitted trace always balances.
type Tracer struct {
	nextID    atomic.Uint64
	nextTrack atomic.Uint64

	mu      sync.Mutex
	buf     []Event
	n       int // total events ever appended
	dropped int64
}

// NewTracer creates a tracer whose ring holds capacity events (begin
// and end edges each count as one). capacity <= 0 selects
// DefaultTraceCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// NewTrack allocates a fresh rendering lane. Concurrent streams (e.g.
// one virtual clock of a simulated experiment) each take a lane so they
// render side by side instead of stacked on the main track. Lane IDs
// are never reused, so concurrent streams always get disjoint tracks.
func (t *Tracer) NewTrack() uint64 {
	if t == nil {
		return 0
	}
	return t.nextTrack.Add(1)
}

// Begin records the begin edge of a span and returns its id. parent is
// the enclosing span's id (0 for a root); track is the rendering lane.
func (t *Tracer) Begin(name string, ts int64, parent, track uint64) uint64 {
	return t.BeginQuery(name, ts, parent, track, 0)
}

// BeginQuery is Begin with the span attributed to a query trace id
// (see QueryID): the exported Chrome event carries the id in its args,
// which is what lets trace-merge stitch the client's and the server's
// spans of one query into a single timeline.
func (t *Tracer) BeginQuery(name string, ts int64, parent, track, qid uint64) uint64 {
	if t == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.append(Event{Name: name, Begin: true, Ts: ts, ID: id, Parent: parent, Track: track, Qid: qid})
	return id
}

// End records the end edge of the span with the given id.
func (t *Tracer) End(name string, ts int64, id, track uint64) {
	if t == nil || id == 0 {
		return
	}
	t.append(Event{Name: name, Ts: ts, ID: id, Track: track})
}

func (t *Tracer) append(e Event) {
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.n%cap(t.buf)] = e
		t.dropped++
	}
	t.n++
	t.mu.Unlock()
}

// Events returns a copy of the surviving events in record order (oldest
// first). On a wrapped ring this is the newest cap(buf) events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.n > len(t.buf) { // wrapped: oldest surviving event is at n%cap
		pos := t.n % cap(t.buf)
		out = append(out, t.buf[pos:]...)
		out = append(out, t.buf[:pos]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is one entry of the Chrome trace-event JSON array
// (loadable in chrome://tracing and Perfetto's JSON importer).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`

	// Flow-event fields, used only by MergeChromeTraces to draw arrows
	// between the client's and the server's spans of one query.
	Cat       string `json:"cat,omitempty"`
	FlowID    string `json:"id,omitempty"`
	BindPoint string `json:"bp,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace encodes the recorded spans as Chrome trace-event
// JSON. Only balanced spans are emitted: an end edge whose begin was
// lost to ring wraparound, and a begin edge still open at export time,
// are dropped (and counted in otherData) so the file always loads
// cleanly. Span hierarchy is carried in args ("span", "parent"); lanes
// map to Chrome thread ids with human-readable thread_name metadata.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	begun := make(map[uint64]bool, len(events)/2)
	ended := make(map[uint64]bool, len(events)/2)
	for _, e := range events {
		if e.Begin {
			begun[e.ID] = true
		} else {
			ended[e.ID] = true
		}
	}
	out := chromeTrace{
		TraceEvents:     []chromeEvent{},
		DisplayTimeUnit: "ms",
	}
	tracks := map[uint64]bool{}
	var orphaned, unclosed int64
	for _, e := range events {
		if !begun[e.ID] {
			orphaned++ // end edge whose begin wrapped away
			continue
		}
		if !ended[e.ID] {
			unclosed++ // begin edge of a span still open
			continue
		}
		ce := chromeEvent{Name: e.Name, Ts: float64(e.Ts) / 1e3, Pid: 1, Tid: e.Track}
		if e.Begin {
			ce.Ph = "B"
			ce.Args = map[string]any{"span": e.ID}
			if e.Parent != 0 {
				ce.Args["parent"] = e.Parent
			}
			if e.Qid != 0 {
				// Hex string, not a number: 64-bit ids lose precision in
				// float64 JSON decoders, and trace-merge matches on this.
				ce.Args["qid"] = QueryID{Trace: e.Qid}.String()
			}
		} else {
			ce.Ph = "E"
		}
		tracks[e.Track] = true
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	// Thread-name metadata so lanes render with stable labels.
	meta := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "bora"},
	}}
	ids := make([]uint64, 0, len(tracks))
	for id := range tracks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		name := "main"
		if id != 0 {
			name = fmt.Sprintf("lane-%d", id)
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: map[string]any{"name": name},
		})
	}
	out.TraceEvents = append(meta, out.TraceEvents...)
	if d := t.Dropped(); d > 0 || orphaned > 0 || unclosed > 0 {
		out.OtherData = map[string]any{
			"dropped_events": d,
			"orphaned_spans": orphaned,
			"unclosed_spans": unclosed,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
