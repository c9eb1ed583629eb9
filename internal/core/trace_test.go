package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// traceDoc mirrors the Chrome trace-event JSON for decoding in tests.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args"`
}

func exportTrace(t *testing.T, tr *obs.Tracer) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc
}

// canonicalEdges reduces a trace to its sorted unique parent→child op-name
// edge set ("- > name" for roots), the structure that is deterministic
// across runs while timestamps, span counts and worker interleavings are
// not.
func canonicalEdges(doc traceDoc) []string {
	names := map[uint64]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "B" {
			if id, ok := e.Args["span"].(float64); ok {
				names[uint64(id)] = e.Name
			}
		}
	}
	set := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "B" {
			continue
		}
		parent := "-"
		if pid, ok := e.Args["parent"].(float64); ok {
			parent = names[uint64(pid)]
		}
		set[parent+" > "+e.Name] = true
	}
	out := make([]string, 0, len(set))
	for edge := range set {
		out = append(out, edge)
	}
	sort.Strings(out)
	return out
}

// TestTraceGolden drives a deterministic duplicate + topic-order query
// through a tracer-attached BORA instance and compares the trace's
// parent→child edge set against testdata/trace_edges.golden — the
// hierarchy contract of the whole instrumented stack in one file.
// Regenerate with: go test ./internal/core -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	reg.AttachTracer(tr)
	b, err := New(filepath.Join(t.TempDir(), "backend"),
		Options{TimeWindow: time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	src := makeSourceBag(t, t.TempDir(), 5)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	if err := bag.Query(QuerySpec{}, func(MessageRef) error { return nil }); err != nil {
		t.Fatal(err)
	}

	doc := exportTrace(t, tr)
	got := strings.Join(canonicalEdges(doc), "\n") + "\n"
	golden := filepath.Join("testdata", "trace_edges.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("trace edge set diverged from golden.\n got:\n%s\nwant:\n%s", got, want)
	}

	// Structural validity the golden can't capture: balanced B/E, a pid on
	// every event, microsecond timestamps monotonic per track.
	begins, ends := 0, 0
	lastTs := map[uint64]float64{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B", "E":
			if e.Pid == 0 {
				t.Fatalf("event %q has no pid", e.Name)
			}
			if e.Ts < lastTs[e.Tid] {
				t.Fatalf("timestamps regress on track %d at %q", e.Tid, e.Name)
			}
			lastTs[e.Tid] = e.Ts
			if e.Ph == "B" {
				begins++
			} else {
				ends++
			}
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("unbalanced trace: %d B vs %d E", begins, ends)
	}
}

// TestQueryTraceWrapsBalanced checks a query's trace under ring
// wraparound: every span id is begun once, and the exported trace stays
// balanced even when the (deliberately tiny) ring has dropped events.
func TestQueryTraceWrapsBalanced(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	reg.AttachTracer(tr)
	b, err := New(filepath.Join(t.TempDir(), "backend"),
		Options{TimeWindow: time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	src := makeSourceBag(t, t.TempDir(), 5)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // enough spans to wrap the 64-event ring
		if err := bag.Query(QuerySpec{}, func(MessageRef) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Dropped() == 0 {
		t.Fatal("test did not exercise ring wraparound; shrink the ring")
	}

	doc := exportTrace(t, tr)
	spanSeen := map[uint64]bool{}
	begins, ends := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			begins++
			id := uint64(e.Args["span"].(float64))
			if spanSeen[id] {
				t.Fatalf("span id %d begun twice", id)
			}
			spanSeen[id] = true
		case "E":
			ends++
		}
	}
	if begins != ends {
		t.Errorf("unbalanced trace after wraparound: %d B vs %d E", begins, ends)
	}
}

// TestTraceDisabledNoEvents pins that an instance without a tracer (the
// default) emits nothing even with metrics on.
func TestTraceDisabledNoEvents(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(filepath.Join(t.TempDir(), "backend"), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	src := makeSourceBag(t, t.TempDir(), 2)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	if err := bag.Query(QuerySpec{}, func(MessageRef) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if reg.Tracer() != nil {
		t.Fatal("registry has a tracer nobody attached")
	}
	if reg.Snapshot().Ops["core.read"].Count != 1 {
		t.Error("metrics did not record with tracing off")
	}
}
