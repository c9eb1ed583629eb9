package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server/wire"
)

// TestSidecarEndpoints is the method/Content-Type table for the HTTP
// sidecar: every endpoint serves GET and HEAD with its documented type
// and rejects everything else with 405 + Allow.
func TestSidecarEndpoints(t *testing.T) {
	b := buildBackend(t, nil, 1, 4)
	// No listener needed: the sidecar handler is exercised directly.
	srv := New(b, Options{QueryLog: obs.NewQueryLog(8, 0, nil)})
	defer srv.Close()
	h := srv.HTTPHandler()

	cases := []struct {
		path        string
		contentType string
	}{
		{"/metrics", "application/json"},
		{"/healthz", "text/plain; charset=utf-8"},
		{"/statz", "application/json"},
		{"/slowqueries", "application/json"},
	}
	for _, tc := range cases {
		for _, method := range []string{"GET", "HEAD"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(method, tc.path, nil))
			if rr.Code != 200 {
				t.Errorf("%s %s = %d, want 200", method, tc.path, rr.Code)
			}
			if ct := rr.Header().Get("Content-Type"); ct != tc.contentType {
				t.Errorf("%s %s Content-Type = %q, want %q", method, tc.path, ct, tc.contentType)
			}
		}
		for _, method := range []string{"POST", "PUT", "DELETE"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(method, tc.path, nil))
			if rr.Code != 405 {
				t.Errorf("%s %s = %d, want 405", method, tc.path, rr.Code)
			}
			if allow := rr.Header().Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s Allow = %q, want \"GET, HEAD\"", method, tc.path, allow)
			}
		}
	}

	// pprof is opt-in: absent by default, mounted with Options.Pprof.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != 404 {
		t.Errorf("/debug/pprof/ without Pprof = %d, want 404", rr.Code)
	}
	srv2 := New(b, Options{Pprof: true})
	defer srv2.Close()
	rr = httptest.NewRecorder()
	srv2.HTTPHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != 200 {
		t.Errorf("/debug/pprof/ with Pprof = %d, want 200", rr.Code)
	}
}

// TestQueryAttributionEndToEnd is the tentpole's acceptance path: a
// client-minted QueryID crosses the wire, the server's slow-query
// record carries it with real per-query resource counters, the slow
// JSONL sink logs it, and the client's and server's Chrome traces merge
// into one timeline with both processes' spans tagged by that id.
func TestQueryAttributionEndToEnd(t *testing.T) {
	sreg := obs.NewRegistry()
	stracer := obs.NewTracer(0)
	sreg.AttachTracer(stracer)
	b := buildBackend(t, sreg, 4, 50)

	var slowSink bytes.Buffer
	qlog := obs.NewQueryLog(16, time.Nanosecond, &slowSink) // everything is "slow"
	srv, addr := startServer(t, b, Options{QueryLog: qlog})

	creg := obs.NewRegistry()
	ctracer := obs.NewTracer(0)
	creg.AttachTracer(ctracer)
	cl, err := client.Dial(addr, client.Options{Window: 8, Obs: creg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	runQuery := func() uint64 {
		st, err := cl.Query("robot1", client.QuerySpec{Topics: []string{"/sensor01", "/sensor02"}})
		if err != nil {
			t.Fatal(err)
		}
		for st.Next() {
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		if st.QueryID() == 0 {
			t.Fatal("stream has no query id")
		}
		return st.QueryID()
	}
	qid1 := runQuery() // cold: maps the parts
	qid2 := runQuery() // warm: reads the same mappings
	if qid1 == qid2 {
		t.Fatalf("two queries share trace id %016x", qid1)
	}

	// The record lands in runQuery's defer, just after the client sees
	// END — poll briefly.
	var recs []obs.QueryRecord
	deadline := time.Now().Add(5 * time.Second)
	for len(recs) < 2 && time.Now().Before(deadline) {
		recs = qlog.Records()
		time.Sleep(time.Millisecond)
	}
	if len(recs) != 2 {
		t.Fatalf("query log holds %d records, want 2", len(recs))
	}

	hex1 := obs.QueryID{Trace: qid1}.String()
	hex2 := obs.QueryID{Trace: qid2}.String()
	// Matched by trace id, not ring position: a stream's slot is released
	// before its record lands, so the second query's record can land first.
	cold, warm := recs[0], recs[1]
	if cold.TraceID == hex2 {
		cold, warm = warm, cold
	}
	if cold.TraceID != hex1 || warm.TraceID != hex2 {
		t.Fatalf("record trace ids %q/%q, want %q and %q", recs[0].TraceID, recs[1].TraceID, hex1, hex2)
	}
	for _, r := range recs {
		if r.Status != "ok" || !r.Slow {
			t.Errorf("record %q status=%q slow=%v, want ok/slow", r.TraceID, r.Status, r.Slow)
		}
		if r.Bag != "robot1" || len(r.Topics) != 2 {
			t.Errorf("record %q bag=%q topics=%v", r.TraceID, r.Bag, r.Topics)
		}
		if r.Messages != 100 || r.Bytes <= 0 {
			t.Errorf("record %q messages=%d bytes=%d, want 100 msgs", r.TraceID, r.Messages, r.Bytes)
		}
		if r.IndexProbes <= 0 {
			t.Errorf("record %q index probes = %d, want > 0", r.TraceID, r.IndexProbes)
		}
		// The daemon reads its pooled handle's mapped parts in runs: a
		// run of adjacent messages is one read, one slice of the mapping.
		// No block cache sits in between, so DiskNs, which timed its
		// fills, stays zero.
		if r.DataReads <= 0 || r.DataReads >= r.Messages {
			t.Errorf("record %q data reads = %d for %d messages, want fewer reads than messages", r.TraceID, r.DataReads, r.Messages)
		}
		if r.DiskNs != 0 {
			t.Errorf("record %q disk ns = %d, want 0: pooled reads are mapped", r.TraceID, r.DiskNs)
		}
		if r.ParentSpan == 0 {
			t.Errorf("record %q has no client parent span", r.TraceID)
		}
		if r.DurationNs <= 0 || r.QueueWaitNs <= 0 {
			t.Errorf("record %q duration=%d queue_wait=%d, want > 0", r.TraceID, r.DurationNs, r.QueueWaitNs)
		}
		if r.Remote == "" {
			t.Errorf("record %q has no remote address", r.TraceID)
		}
	}
	// The attribution is the bag's own counter, query by query: the two
	// queries are all the pooled handle has served.
	bag, err := srv.pl.Acquire("robot1")
	if err != nil {
		t.Fatal(err)
	}
	if got := bag.Stats().DataReads; int64(got) != cold.DataReads+warm.DataReads {
		t.Errorf("pooled handle counted %d data reads, the query records %d + %d", got, cold.DataReads, warm.DataReads)
	}

	// The slow JSONL sink carries both trace ids, one line per record.
	slow := slowSink.String()
	if !bytes.Contains([]byte(slow), []byte(hex1)) || !bytes.Contains([]byte(slow), []byte(hex2)) {
		t.Errorf("slow log missing trace ids:\n%s", slow)
	}

	// Trace stitching: both processes' traces merge into one document
	// where pid 1 (client) and pid 2 (server) each carry spans tagged
	// with the first query's id.
	var ctrace, strace bytes.Buffer
	if err := ctracer.WriteChromeTrace(&ctrace); err != nil {
		t.Fatal(err)
	}
	if err := stracer.WriteChromeTrace(&strace); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	err = obs.MergeChromeTraces(&merged, []obs.TraceInput{
		{Name: "client", Data: ctrace.Bytes()},
		{Name: "borad", Data: strace.Bytes()},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(merged.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid Chrome trace JSON: %v", err)
	}
	qidPids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "B" && e.Args["qid"] == hex1 {
			qidPids[e.Pid] = true
		}
	}
	if !qidPids[1] || !qidPids[2] {
		t.Errorf("query %s spans present in pids %v, want both client (1) and server (2)", hex1, qidPids)
	}
}

// collectQueryResponse sends one raw QUERY frame and returns the
// response stream as concatenated (opcode, payload) frames up to and
// including the terminal frame.
func collectQueryResponse(t *testing.T, addr string, payload []byte) []byte {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var e wire.Encoder
	if err := e.WriteFrame(nc, wire.OpQuery, payload); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	var out bytes.Buffer
	var rbuf []byte
	for {
		f, err := wire.ReadFrameInto(br, wire.DefaultMaxFrame, &rbuf)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteByte(f.Op)
		out.Write(f.Payload)
		if f.Op == wire.OpEnd || f.Op == wire.OpErr || f.Op == wire.OpBusy {
			return out.Bytes()
		}
	}
}

// TestOldFormatQueryServedIdentically pins backward compatibility on
// the wire: a pre-TraceID QUERY frame (no trailing trace block) is
// served with a byte-identical response stream to a traced one — the
// trace id changes what the server records, never what it serves.
func TestOldFormatQueryServedIdentically(t *testing.T) {
	b := buildBackend(t, nil, 3, 20)
	_, addr := startServer(t, b, Options{QueryLog: obs.NewQueryLog(8, 0, nil)})

	req := wire.QueryReq{Name: "robot1", Topics: []string{"/sensor00", "/sensor02"}}
	oldFormat := wire.EncodeQuery(req) // TraceID 0: byte-identical to the old layout
	req.TraceID = obs.NewTraceID()
	req.ParentSpan = 99
	traced := wire.EncodeQuery(req)
	if bytes.Equal(oldFormat, traced) {
		t.Fatal("traced payload did not grow; versioning broken")
	}

	oldResp := collectQueryResponse(t, addr, oldFormat)
	newResp := collectQueryResponse(t, addr, traced)
	if len(oldResp) == 0 || oldResp[0] != wire.OpQueryHdr {
		t.Fatalf("old-format query rejected: response starts %v", oldResp[:min(8, len(oldResp))])
	}
	if !bytes.Equal(oldResp, newResp) {
		t.Fatalf("response streams differ: old %d bytes, traced %d bytes", len(oldResp), len(newResp))
	}
}
