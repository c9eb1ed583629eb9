package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// chromeDoc mirrors the trace-event JSON for decoding in tests.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

func decodeTrace(t *testing.T, tr *Tracer) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(16)
	id := tr.Begin("op.a", 100, 0, 0)
	child := tr.Begin("op.b", 200, id, 0)
	tr.End("op.b", 300, child, 0)
	tr.End("op.a", 400, id, 0)
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if !evs[0].Begin || evs[0].Name != "op.a" || evs[0].Parent != 0 {
		t.Errorf("first event = %+v, want begin op.a root", evs[0])
	}
	if evs[1].Parent != id {
		t.Errorf("child parent = %d, want %d", evs[1].Parent, id)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d on an unwrapped ring", tr.Dropped())
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 10; i++ {
		id := tr.Begin("op", int64(i*10), 0, 0)
		tr.End("op", int64(i*10+5), id, 0)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("got %d surviving events, want 8 (= capacity)", len(evs))
	}
	if tr.Dropped() != 12 {
		t.Errorf("dropped = %d, want 12 (20 appended - 8 kept)", tr.Dropped())
	}
	// Oldest surviving events first.
	for i := 1; i < len(evs); i++ {
		if evs[i].Ts < evs[i-1].Ts {
			t.Fatalf("events out of order at %d: %d < %d", i, evs[i].Ts, evs[i-1].Ts)
		}
	}
}

func TestChromeTraceBalancedAfterWrap(t *testing.T) {
	// Capacity 6, three spans: the first span's begin edge wraps away, the
	// last span never ends. Exported trace must still balance.
	tr := NewTracer(6)
	a := tr.Begin("a", 0, 0, 0)
	b := tr.Begin("b", 10, 0, 0)
	tr.End("b", 20, b, 0)
	c := tr.Begin("c", 30, 0, 0)
	tr.End("c", 40, c, 0)
	tr.End("a", 50, a, 0) // 7th event: evicts a's begin
	tr.Begin("d", 60, 0, 0)

	doc := decodeTrace(t, tr)
	begins, ends := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			begins++
		case "E":
			ends++
		case "M":
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if begins != ends {
		t.Errorf("unbalanced trace: %d B vs %d E", begins, ends)
	}
	if begins != 2 { // only b and c survive whole
		t.Errorf("got %d balanced spans, want 2", begins)
	}
	if doc.OtherData["orphaned_spans"].(float64) != 1 {
		t.Errorf("orphaned_spans = %v, want 1", doc.OtherData["orphaned_spans"])
	}
	if doc.OtherData["unclosed_spans"].(float64) != 1 {
		t.Errorf("unclosed_spans = %v, want 1", doc.OtherData["unclosed_spans"])
	}
}

func TestChromeTraceStructure(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(0)
	reg.AttachTracer(tr)
	root := reg.Op("root").Start()
	child := root.Child("child")
	child.End()
	lane := root.ForkOp(reg.Op("lane"))
	lane.End()
	root.End()

	doc := decodeTrace(t, tr)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var procName, mainName bool
	byName := map[string]int{}
	var rootID, childParent, laneTid any
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procName = true
			}
			if e.Name == "thread_name" && e.Tid == 0 && e.Args["name"] == "main" {
				mainName = true
			}
		case "B":
			byName[e.Name]++
			switch e.Name {
			case "root":
				rootID = e.Args["span"]
				if e.Tid != 0 {
					t.Errorf("root span on track %d, want main (0)", e.Tid)
				}
			case "child":
				childParent = e.Args["parent"]
				if e.Tid != 0 {
					t.Errorf("child span on track %d, want parent's (0)", e.Tid)
				}
			case "lane":
				laneTid = e.Tid
				if e.Tid == 0 {
					t.Error("forked span stayed on the main track")
				}
			}
		}
	}
	if !procName || !mainName {
		t.Error("missing process_name/thread_name metadata")
	}
	for _, n := range []string{"root", "child", "lane"} {
		if byName[n] != 1 {
			t.Errorf("span %q emitted %d begin edges, want 1", n, byName[n])
		}
	}
	if rootID == nil || childParent == nil || childParent != rootID {
		t.Errorf("child parent arg %v does not match root span id %v", childParent, rootID)
	}
	_ = laneTid
}

// TestSpanChildZeroParentStillRecords pins the ChildOp contract: a zero
// parent must not silence metrics — the span records and traces as a
// root — so layers can take optional parents safely.
func TestSpanChildZeroParentStillRecords(t *testing.T) {
	reg := NewRegistry()
	op := reg.Op("x")
	sp := Span{}.ChildOp(op)
	sp.End()
	if got := reg.Snapshot().Ops["x"].Count; got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
	// Plain Child on a zero parent stays a no-op (no registry to resolve
	// the name against).
	Span{}.Child("y").End()
	if _, ok := reg.Snapshot().Ops["y"]; ok {
		t.Error("zero-parent Child recorded; want no-op")
	}
}

// TestEndErrCountsOnce is the regression test for the EndErr double-count
// semantics: one failed span increments Count exactly once and Errors
// exactly once.
func TestEndErrCountsOnce(t *testing.T) {
	reg := NewRegistry()
	op := reg.Op("failing")
	sp := op.Start()
	sp.EndErr(errors.New("boom"))
	snap := reg.Snapshot().Ops["failing"]
	if snap.Count != 1 {
		t.Errorf("Count = %d after one EndErr, want 1", snap.Count)
	}
	if snap.Errors != 1 {
		t.Errorf("Errors = %d after one EndErr, want 1", snap.Errors)
	}
	sp2 := op.Start()
	sp2.EndErr(nil)
	snap = reg.Snapshot().Ops["failing"]
	if snap.Count != 2 || snap.Errors != 1 {
		t.Errorf("after nil-err EndErr: Count=%d Errors=%d, want 2/1", snap.Count, snap.Errors)
	}
}

func TestSnapshotDelta(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(3)
	reg.Op("a").Observe(100, 10)
	reg.Op("quiet").Observe(100, 0)
	prev := reg.Snapshot()

	reg.Counter("c").Add(2)
	reg.Op("a").Observe(100, 5)
	reg.Op("a").Observe(1000, 0)
	reg.Op("fresh").Observe(50, 1)
	cur := reg.Snapshot()

	d := cur.Delta(prev)
	if got := d.Counters["c"]; got != 2 {
		t.Errorf("counter delta = %d, want 2", got)
	}
	a := d.Ops["a"]
	if a.Count != 2 || a.Bytes != 5 || a.TotalNs != 1100 {
		t.Errorf("op a delta = %+v, want count 2, bytes 5, total 1100", a)
	}
	var bucketN int64
	for _, b := range a.Buckets {
		bucketN += b.Count
	}
	if bucketN != 2 {
		t.Errorf("op a delta buckets hold %d events, want 2", bucketN)
	}
	if _, ok := d.Ops["quiet"]; ok {
		t.Error("op with no interval activity not omitted from delta")
	}
	if d.Ops["fresh"].Count != 1 {
		t.Errorf("op first seen in the interval: count = %d, want 1", d.Ops["fresh"].Count)
	}
	if len(d.Delta(d).Ops) != 0 || len(d.Delta(d).Counters) != 0 {
		t.Error("self-delta is not empty")
	}
}

// TestConcurrentForksDisjointTracks runs concurrent forked spans against
// a deliberately tiny ring (forcing wraparound) under -race: every
// concurrent stream must land on its own track, and the exported trace
// must stay balanced.
func TestConcurrentForksDisjointTracks(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(64) // small: guarantees wraparound below
	reg.AttachTracer(tr)
	root := reg.Op("root").Start()

	const workers = 8
	const spansEach = 32
	trackCh := make(chan uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := root.ForkOp(reg.Op(fmt.Sprintf("worker-%d", w)))
			trackCh <- lane.track
			for i := 0; i < spansEach; i++ {
				lane.Child("item").End()
			}
			lane.End()
		}(w)
	}
	wg.Wait()
	root.End()
	close(trackCh)

	seen := map[uint64]bool{}
	for tk := range trackCh {
		if tk == 0 {
			t.Error("forked span landed on the main track")
		}
		if seen[tk] {
			t.Errorf("track %d reused by two concurrent streams", tk)
		}
		seen[tk] = true
	}
	if len(seen) != workers {
		t.Errorf("got %d distinct tracks, want %d", len(seen), workers)
	}
	if tr.Dropped() == 0 {
		t.Fatal("test did not exercise wraparound; shrink the ring")
	}
	doc := decodeTrace(t, tr)
	begins := map[uint64]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "B" {
			id := uint64(e.Args["span"].(float64))
			if begins[id] {
				t.Errorf("span %d emitted twice", id)
			}
			begins[id] = true
		}
	}
	ends := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "E" {
			ends++
		}
	}
	if len(begins) != ends {
		t.Errorf("unbalanced export after wraparound: %d B vs %d E", len(begins), ends)
	}
}

// TestTracerConcurrentAtCapacity hammers Begin/End across forked tracks
// with exactly one ring's worth of surviving events: 8 goroutines × 16
// spans × 2 edges = 256 appended against capacity 128. Under -race this
// pins the wraparound bookkeeping — the surviving window is exactly the
// capacity, Dropped() accounts for precisely the overwritten remainder,
// and no event is lost or double-counted in between.
func TestTracerConcurrentAtCapacity(t *testing.T) {
	const (
		capacity  = 128
		workers   = 8
		spansEach = 16
	)
	tr := NewTracer(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := tr.NewTrack()
			for i := 0; i < spansEach; i++ {
				id := tr.BeginQuery("span", int64(i), 0, track, uint64(w+1))
				tr.End("span", int64(i)+1, id, track)
			}
		}(w)
	}
	wg.Wait()

	appended := workers * spansEach * 2
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("surviving events = %d, want exactly capacity %d", len(evs), capacity)
	}
	if got, want := tr.Dropped(), int64(appended-capacity); got != want {
		t.Fatalf("Dropped() = %d, want %d (%d appended - %d kept)", got, want, appended, capacity)
	}
	// Every surviving event is intact: a real span id, and begin edges
	// carry the worker's qid.
	for _, e := range evs {
		if e.ID == 0 {
			t.Fatal("surviving event lost its span id")
		}
		if e.Begin && (e.Qid < 1 || e.Qid > workers) {
			t.Fatalf("begin edge qid = %d, want 1..%d", e.Qid, workers)
		}
	}
	// The export still balances (half-spans from wraparound are dropped).
	doc := decodeTrace(t, tr)
	begins, ends := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			begins++
			if e.Args["qid"] == nil {
				t.Error("exported begin edge lost its qid arg")
			}
		case "E":
			ends++
		}
	}
	if begins != ends {
		t.Errorf("unbalanced export: %d B vs %d E", begins, ends)
	}
}

// TestTracerNilSafe pins the no-op contract of the nil tracer.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.Begin("x", 0, 0, 0); id != 0 {
		t.Errorf("nil Begin returned id %d", id)
	}
	tr.End("x", 0, 1, 0)
	if tr.NewTrack() != 0 {
		t.Error("nil NewTrack != 0")
	}
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer reports events")
	}
}
