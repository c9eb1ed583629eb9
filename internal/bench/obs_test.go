package bench

import (
	"testing"

	"repro/internal/obs"
)

// TestSimExperimentRecordsRealOpHistograms pins the sim-time metrics
// contract: a simio-backed experiment run with an obs registry records
// per-op latency histograms under the SAME op names the real I/O path
// uses, so sim and real sidecars are directly comparable.
func TestSimExperimentRecordsRealOpHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := RunObs("fig10", reg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, op := range []string{"core.open", "core.read", "core.read_topic", "rosbag.open", "rosbag.read"} {
		o, ok := snap.Ops[op]
		if !ok || o.Count == 0 {
			t.Errorf("sim run did not record op %q", op)
			continue
		}
		if len(o.Buckets) == 0 {
			t.Errorf("op %q has no latency histogram buckets", op)
		}
		if o.TotalNs == 0 {
			t.Errorf("op %q recorded zero virtual time; sim durations lost", op)
		}
	}
}

// TestSimExperimentEmitsSimTimeSpans checks the -trace side of the same
// contract: with a tracer attached, the virtual clocks emit balanced
// spans on their own lanes, timestamped in sim time.
func TestSimExperimentEmitsSimTimeSpans(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	reg.AttachTracer(tr)
	if _, err := RunObs("fig10", reg); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("sim experiment emitted no trace events")
	}
	begins, ends := 0, 0
	lanes := map[uint64]bool{}
	names := map[string]bool{}
	for _, e := range evs {
		if e.Begin {
			begins++
			names[e.Name] = true
		} else {
			ends++
		}
		lanes[e.Track] = true
	}
	if begins != ends {
		t.Errorf("unbalanced sim trace: %d B vs %d E", begins, ends)
	}
	// Each attached virtual clock takes its own lane; only the bench.<id>
	// root span sits on the main track.
	clockLanes := 0
	for lane := range lanes {
		if lane != 0 {
			clockLanes++
		}
	}
	if clockLanes < 2 {
		t.Errorf("got %d clock lanes, want >=2 (one per attached virtual clock)", clockLanes)
	}
	for _, op := range []string{"core.open", "core.read"} {
		if !names[op] {
			t.Errorf("no sim span named %q", op)
		}
	}
}
