package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/bagio"
)

// tiny is a 2 s recording with images scaled down 2000-fold: 2,544
// messages, well under a megabyte.
var tiny = dataset{2, 2000}

// tinyScan sets a scan_small instance up on the tiny dataset.
func tinyScan(t *testing.T) (*scanSmall, *tally) {
	t.Helper()
	dir := t.TempDir()
	src, err := synth(dir, tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(src, tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	tl := &tally{}
	w := workloadByName("scan_small").newInstance(size{tiny, 2}, dir, 7, tracing{}, tl).(*scanSmall)
	if err := w.setup(src, orc); err != nil {
		t.Fatal(err)
	}
	return w, tl
}

func TestOracleCatchesWrongDigest(t *testing.T) {
	w, tl := tinyScan(t)
	w.round(true)
	w.round(false)
	if tl.failed != 0 {
		t.Fatalf("%d ops failed against the true oracle: %s", tl.failed, tl.first)
	}

	// One wrong hash: only a verification round can see it.
	imu := w.orc.byTopic["/imu"]
	imu[3].hash++
	w.round(false)
	if tl.failed != 0 {
		t.Fatalf("a measured round compared digests: %s", tl.first)
	}
	w.round(true)
	if tl.failed == 0 || !strings.Contains(tl.first, "digest") {
		t.Fatalf("wrong digest not reported: failed=%d first=%q", tl.failed, tl.first)
	}

	// One wrong byte total: every round sees it.
	imu[3].hash--
	w.counts.bytes++
	before := tl.failed
	w.round(false)
	if tl.failed != before+w.sz.ops {
		t.Fatalf("wrong byte total failed %d ops, want %d", tl.failed-before, w.sz.ops)
	}
}

func TestOracleRejectsAnotherBag(t *testing.T) {
	src, err := synth(t.TempDir(), tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newOracle(src, dataset{3, 2000}, 7); err == nil {
		t.Fatal("oracle accepted a bag of another recording")
	}
}

func TestCollectorChecksOrder(t *testing.T) {
	t1, t2 := bagio.TimeFromNanos(baseNs), bagio.TimeFromNanos(baseNs+1)

	col := newCollector(true, orderTime)
	col.add("/imu", t2, nil)
	col.add("/tf", t1, nil)
	if col.check(col.sum) == "" {
		t.Error("time order: a message delivered before an earlier one went unnoticed")
	}
	col = newCollector(true, orderTopic)
	col.add("/imu", t1, nil)
	col.add("/tf", t1, nil)
	col.add("/imu", t2, nil)
	if col.check(col.sum) == "" {
		t.Error("topic order: a topic delivered in two runs went unnoticed")
	}
	col = newCollector(true, orderTopic)
	col.add("/imu", t1, nil)
	col.add("/imu", t2, nil)
	col.add("/tf", t1, nil)
	if m := col.check(col.sum); m != "" {
		t.Errorf("topic order: correct delivery rejected: %s", m)
	}
}

func TestSpansSelfTime(t *testing.T) {
	s := &spans{}
	s.all = []span{
		{name: "bench.op", parent: -1, op: 1, start: 0, end: 100},
		{name: "core.Open", parent: 0, op: 1, start: 10, end: 30},
		{name: "core.Query", parent: 0, op: 1, start: 30, end: 90, failed: true},
	}
	rows := s.layerTable()
	if len(rows) != 2 || rows[0].Layer != "core" || rows[1].Layer != "bench" {
		t.Fatalf("layerTable = %+v", rows)
	}
	if !near(rows[0].SelfMs, 80e-6) || rows[0].Failures != 1 || !near(rows[1].SelfMs, 20e-6) || !near(rows[1].BusyMs, 100e-6) {
		t.Errorf("layerTable = %+v", rows)
	}
	if got := harnessShare(rows); !near(got, 0.2) {
		t.Errorf("harnessShare = %v, want 0.2", got)
	}
	if v, n := s.medianMs("core.Open"); n != 1 || !near(v, 20e-6) {
		t.Errorf("medianMs(core.Open) = %v over %d", v, n)
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the metric tables in
// this package equal: the driver reads the one, the program prints the
// other.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %+v", i, m.Workloads[i], w)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		if got, want := m.EndToEnd[i], (metric{e.name, e.unit, better(e.higher), e.bound}); got != want {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, got, want)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(m.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, l := range perLayer {
		if got, want := m.PerLayer[i], (metric{l.name, l.unit, better(l.higher), 0}); got != want {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, got, want)
		}
		if seen[l.name] {
			t.Errorf("per-layer metric %s listed twice", l.name)
		}
		seen[l.name] = true
	}
}
