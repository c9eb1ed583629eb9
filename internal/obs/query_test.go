package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestQueryIDBasics(t *testing.T) {
	if !(QueryID{}).IsZero() {
		t.Error("zero QueryID not IsZero")
	}
	q := QueryID{Trace: 0xdeadbeef}
	if q.IsZero() {
		t.Error("non-zero QueryID reports IsZero")
	}
	if got := q.String(); got != "00000000deadbeef" {
		t.Errorf("String() = %q, want fixed-width hex", got)
	}
	for i := 0; i < 100; i++ {
		if NewTraceID() == 0 {
			t.Fatal("NewTraceID returned 0")
		}
	}
}

func TestActiveQueryNilSafe(t *testing.T) {
	var q *ActiveQuery
	q.AddIndexProbes(5)
	q.AddDataReads(5)
	q.AddCreditStall(time.Millisecond)
}

func TestActiveQueryAccumulates(t *testing.T) {
	q := &ActiveQuery{ID: QueryID{Trace: 7, Parent: 3}}
	q.AddIndexProbes(10)
	q.AddDataReads(3)
	q.AddCreditStall(2 * time.Millisecond)
	q.Messages.Store(4)
	q.Bytes.Store(400)

	var r QueryRecord
	r.Fill(q)
	if r.TraceID != "0000000000000007" || r.ParentSpan != 3 {
		t.Errorf("trace identity = %q/%d", r.TraceID, r.ParentSpan)
	}
	if r.IndexProbes != 10 || r.CreditStallNs != int64(2*time.Millisecond) {
		t.Errorf("probes/stall = %d/%d", r.IndexProbes, r.CreditStallNs)
	}
	if r.Messages != 4 || r.Bytes != 400 || r.DataReads != 3 {
		t.Errorf("messages/bytes/data reads = %d/%d/%d", r.Messages, r.Bytes, r.DataReads)
	}

	// An untraced query leaves the identity fields empty.
	var r2 QueryRecord
	r2.Fill(&ActiveQuery{})
	if r2.TraceID != "" || r2.ParentSpan != 0 {
		t.Errorf("untraced Fill set identity %q/%d", r2.TraceID, r2.ParentSpan)
	}
}

func TestQueryContextRoundTrip(t *testing.T) {
	if QueryFromContext(context.Background()) != nil {
		t.Error("empty context carries a query")
	}
	q := &ActiveQuery{}
	ctx := ContextWithQuery(context.Background(), q)
	if QueryFromContext(ctx) != q {
		t.Error("context round-trip lost the query")
	}
}

func TestQueryLogRingSlowAndJSONL(t *testing.T) {
	var sink bytes.Buffer
	l := NewQueryLog(4, 100*time.Millisecond, &sink)
	l.Record(QueryRecord{Bag: "fast", DurationNs: int64(time.Millisecond)})
	l.Record(QueryRecord{Bag: "slow1", TraceID: "00000000000000aa", DurationNs: int64(200 * time.Millisecond)})
	if got := len(l.Records()); got != 2 {
		t.Fatalf("records = %d, want 2", got)
	}
	slow := l.Slow()
	if len(slow) != 1 || slow[0].Bag != "slow1" || !slow[0].Slow {
		t.Fatalf("slow = %+v, want one marked record for slow1", slow)
	}
	// The JSONL sink got exactly the slow record, one line, decodable.
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("sink holds %d lines, want 1", len(lines))
	}
	var rec QueryRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow line is not JSON: %v", err)
	}
	if rec.Bag != "slow1" || rec.TraceID != "00000000000000aa" {
		t.Errorf("slow line = %+v", rec)
	}

	// Wraparound: capacity 4, six records total -> newest 4 survive,
	// totals still count everything.
	for i := 0; i < 4; i++ {
		l.Record(QueryRecord{Bag: "fill", DurationNs: 1})
	}
	recs := l.Records()
	if len(recs) != 4 {
		t.Fatalf("after wrap: %d records, want 4", len(recs))
	}
	if recs[0].Bag == "fast" {
		t.Error("oldest record survived a full wrap")
	}
	total, slowN := l.Totals()
	if total != 6 || slowN != 1 {
		t.Errorf("totals = %d/%d, want 6/1", total, slowN)
	}
}

func TestQueryLogNilSafe(t *testing.T) {
	var l *QueryLog
	l.Record(QueryRecord{Bag: "x"})
	if len(l.Records()) != 0 || len(l.Slow()) != 0 {
		t.Error("nil log returned records")
	}
	if total, slow := l.Totals(); total != 0 || slow != 0 {
		t.Error("nil log reports totals")
	}
	// The nil log's handler still serves an empty array.
	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slowqueries", nil))
	if rr.Code != 200 || strings.TrimSpace(rr.Body.String()) != "[]" {
		t.Errorf("nil handler: %d %q", rr.Code, rr.Body.String())
	}
}

func TestQueryLogHandler(t *testing.T) {
	l := NewQueryLog(8, 10*time.Millisecond, nil)
	l.Record(QueryRecord{Bag: "a", DurationNs: int64(time.Millisecond)})
	l.Record(QueryRecord{Bag: "b", DurationNs: int64(time.Second)})
	l.Record(QueryRecord{Bag: "c", DurationNs: int64(2 * time.Second)})
	h := l.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/slowqueries", nil))
	if rr.Code != 200 {
		t.Fatalf("GET = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var recs []QueryRecord
	if err := json.Unmarshal(rr.Body.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Bag != "c" || recs[1].Bag != "b" {
		t.Errorf("slow view = %+v, want [c b] (newest first)", recs)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/slowqueries?all=1", nil))
	recs = nil
	if err := json.Unmarshal(rr.Body.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("all view = %d records, want 3", len(recs))
	}

	for _, method := range []string{"POST", "PUT", "DELETE"} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, "/slowqueries", nil))
		if rr.Code != 405 {
			t.Errorf("%s = %d, want 405", method, rr.Code)
		}
		if allow := rr.Header().Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("%s Allow = %q", method, allow)
		}
	}
}

// TestSnapshotHandlerNilRegistry pins the nil-registry path: the handler
// must serve the empty snapshot, not panic or 500.
func TestSnapshotHandlerNilRegistry(t *testing.T) {
	rr := httptest.NewRecorder()
	SnapshotHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var m map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatalf("body is not JSON: %v (%q)", err, rr.Body.String())
	}
	if len(m) != 0 {
		t.Errorf("nil registry served non-empty snapshot: %v", m)
	}
}

// buildQueryTrace records one complete span tagged with qid, plus one
// untagged span, and returns the trace JSON.
func buildQueryTrace(t *testing.T, qid uint64, base int64) []byte {
	t.Helper()
	tr := NewTracer(0)
	id := tr.BeginQuery("query", base, 0, 0, qid)
	inner := tr.Begin("inner", base+10, id, 0)
	tr.End("inner", base+20, inner, 0)
	tr.End("query", base+100, id, 0)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMergeChromeTraces(t *testing.T) {
	const qid = 0xabc
	client := buildQueryTrace(t, qid, 1_000_000)
	// The server's tracer runs on a different epoch: its timeline starts
	// elsewhere entirely, which is what align must compensate for.
	server := buildQueryTrace(t, qid, 500_000_000)

	var buf bytes.Buffer
	err := MergeChromeTraces(&buf, []TraceInput{
		{Name: "client", Data: client},
		{Name: "borad", Data: server},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}

	wantQid := QueryID{Trace: qid}.String()
	procs := map[int]string{}
	qidBegins := map[int]float64{}
	flows := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procs[e.Pid] = e.Args["name"].(string)
		}
		if e.Ph == "B" && e.Args["qid"] == wantQid {
			if _, ok := qidBegins[e.Pid]; !ok {
				qidBegins[e.Pid] = e.Ts
			}
		}
		if e.Ph == "s" || e.Ph == "f" {
			flows[e.Ph]++
			if e.Args["qid"] != wantQid {
				t.Errorf("flow event qid = %v", e.Args["qid"])
			}
		}
	}
	if procs[1] != "client" || procs[2] != "borad" {
		t.Errorf("process names = %v, want pid1=client pid2=borad", procs)
	}
	if len(qidBegins) != 2 {
		t.Fatalf("qid-tagged spans in %d processes, want both", len(qidBegins))
	}
	if flows["s"] != 1 || flows["f"] != 1 {
		t.Errorf("flow events = %v, want one s and one f", flows)
	}
	// Aligned: the server's tagged span was shifted onto the client's.
	if d := qidBegins[2] - qidBegins[1]; d != 0 {
		t.Errorf("aligned begin delta = %v µs, want 0", d)
	}
}

func TestMergeChromeTracesRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	err := MergeChromeTraces(&buf, []TraceInput{{Name: "x", Data: []byte("not json")}}, false)
	if err == nil {
		t.Fatal("merged garbage without error")
	}
}
