package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// DefaultQueryLogCapacity is the record-ring size NewQueryLog selects
// when the caller passes a non-positive capacity.
const DefaultQueryLogCapacity = 1024

// QueryRecord is one completed query's summary — the per-query row the
// slow-query log and the /slowqueries endpoint serve. Trace ids are
// hex strings (see QueryID.String); span ids are small sequential
// numbers and stay numeric.
type QueryRecord struct {
	Time       time.Time `json:"time"`                  // completion wall time
	TraceID    string    `json:"trace_id,omitempty"`    // client's query id, hex
	ParentSpan uint64    `json:"parent_span,omitempty"` // client-side span id
	Bag        string    `json:"bag"`
	Topics     []string  `json:"topics,omitempty"` // empty = all topics
	Order      string    `json:"order,omitempty"`  // "time" for chronological
	Remote     string    `json:"remote,omitempty"` // client address
	Status     string    `json:"status"`           // ok | error | canceled
	Error      string    `json:"error,omitempty"`

	DurationNs    int64 `json:"duration_ns"`
	QueueWaitNs   int64 `json:"queue_wait_ns,omitempty"`
	DiskNs        int64 `json:"disk_ns,omitempty"`
	CreditStallNs int64 `json:"credit_stall_ns,omitempty"`

	Messages    int64 `json:"messages"`
	Bytes       int64 `json:"bytes"`
	DataReads   int64 `json:"data_reads"` // reads issued against topic data files
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	IndexProbes int64 `json:"index_probes,omitempty"`

	Slow bool `json:"slow,omitempty"`
}

// Fill copies an ActiveQuery's accumulated attribution into the record.
func (r *QueryRecord) Fill(q *ActiveQuery) {
	if q == nil {
		return
	}
	if !q.ID.IsZero() {
		r.TraceID = q.ID.String()
		r.ParentSpan = q.ID.Parent
	}
	r.Messages = q.Messages.Load()
	r.Bytes = q.Bytes.Load()
	r.CacheHits = q.CacheHits.Load()
	r.CacheMisses = q.CacheMisses.Load()
	r.IndexProbes = q.IndexProbes.Load()
	r.DataReads = q.DataReads.Load()
	r.QueueWaitNs = q.QueueWaitNs.Load()
	r.DiskNs = q.DiskNs.Load()
	r.CreditStallNs = q.CreditStallNs.Load()
}

// QueryLog keeps a bounded ring of completed-query records plus a
// threshold-based slow-query log: every record lands in the ring, and
// records at least as slow as the threshold are additionally marked
// Slow and written as one JSON line each to the configured writer.
// A nil *QueryLog is a valid no-op sink. Safe for concurrent use.
type QueryLog struct {
	threshold time.Duration
	w         io.Writer // slow-query JSONL sink; nil = ring only

	mu    sync.Mutex
	ring  []QueryRecord
	n     int // total records ever appended
	slowN int64
}

// NewQueryLog builds a log whose ring holds capacity records
// (non-positive selects DefaultQueryLogCapacity). Records with
// DurationNs >= threshold are marked slow; threshold <= 0 disables the
// slow classification (the ring still fills). slow, when non-nil,
// receives one JSON line per slow record; writes are serialized under
// the log's lock.
func NewQueryLog(capacity int, threshold time.Duration, slow io.Writer) *QueryLog {
	if capacity <= 0 {
		capacity = DefaultQueryLogCapacity
	}
	return &QueryLog{threshold: threshold, w: slow, ring: make([]QueryRecord, 0, capacity)}
}

// Record appends one completed query, classifying it against the slow
// threshold. Nil-safe.
func (l *QueryLog) Record(r QueryRecord) {
	if l == nil {
		return
	}
	if l.threshold > 0 && time.Duration(r.DurationNs) >= l.threshold {
		r.Slow = true
	}
	var line []byte
	if r.Slow && l.w != nil {
		// Encode outside the lock; a marshal failure cannot happen for
		// this struct, so the error is ignored rather than plumbed.
		line, _ = json.Marshal(r)
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, r)
	} else {
		l.ring[l.n%cap(l.ring)] = r
	}
	l.n++
	if r.Slow {
		l.slowN++
		if line != nil {
			l.w.Write(append(line, '\n'))
		}
	}
	l.mu.Unlock()
}

// Records returns a copy of the surviving records, oldest first. On a
// wrapped ring this is the newest cap records.
func (l *QueryLog) Records() []QueryRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryRecord, 0, len(l.ring))
	if l.n > len(l.ring) {
		pos := l.n % cap(l.ring)
		out = append(out, l.ring[pos:]...)
		out = append(out, l.ring[:pos]...)
	} else {
		out = append(out, l.ring...)
	}
	return out
}

// Slow returns the surviving records classified slow, oldest first.
func (l *QueryLog) Slow() []QueryRecord {
	all := l.Records()
	out := make([]QueryRecord, 0, len(all))
	for _, r := range all {
		if r.Slow {
			out = append(out, r)
		}
	}
	return out
}

// Totals returns how many records were ever appended and how many of
// them were slow (both exceed the ring on wraparound).
func (l *QueryLog) Totals() (total int, slow int64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n, l.slowN
}

// Handler serves the log over HTTP: the slow records as a JSON array
// (newest first), or every surviving record with ?all=1. GET/HEAD
// only. A nil log serves the empty array.
func (l *QueryLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		recs := l.Slow()
		if req.URL.Query().Get("all") == "1" {
			recs = l.Records()
		}
		// Newest first: the interesting records are the recent ones.
		for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
			recs[i], recs[j] = recs[j], recs[i]
		}
		data, err := json.MarshalIndent(recs, "", " ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
}
