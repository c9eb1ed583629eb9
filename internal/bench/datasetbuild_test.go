package bench

import (
	"strconv"
	"testing"

	"repro/internal/obs"
)

func TestDatasetBuildExperiment(t *testing.T) {
	reg := obs.NewRegistry()
	tab, err := RunObs("dataset-build", reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("dataset-build rows = %d, want cold/no-op/touch-one", len(tab.Rows))
	}
	rebuilt := func(row []string) int {
		t.Helper()
		n, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("rebuilt cell %q: %v", row[2], err)
		}
		return n
	}
	if n := rebuilt(tab.Rows[0]); n != 10 {
		t.Errorf("cold phase rebuilt %d", n)
	}
	if n := rebuilt(tab.Rows[1]); n != 0 {
		t.Errorf("no-op phase rebuilt %d", n)
	}
	if n := rebuilt(tab.Rows[2]); n != 5 {
		t.Errorf("touch-one phase rebuilt %d", n)
	}
	// The build counters round-trip through the registry: 10 cold + 5
	// incremental rebuilds, 10 no-op + 5 incremental cache hits.
	snap := reg.Snapshot()
	if got := snap.Counters["build.rebuilds"]; got != 15 {
		t.Errorf("build.rebuilds = %d, want 15", got)
	}
	if got := snap.Counters["build.cache_hits"]; got != 15 {
		t.Errorf("build.cache_hits = %d, want 15", got)
	}
	if got := snap.Counters["build.bytes_materialized"]; got == 0 {
		t.Error("build.bytes_materialized = 0")
	}
	// Each phase sidecar is the registry delta of that phase alone: a
	// leak across phases would show the cold build's rebuilds later.
	if len(tab.Phases) != 3 {
		t.Fatalf("phases = %d", len(tab.Phases))
	}
	for i, want := range []struct {
		name     string
		rebuilds int64
	}{{"cold", 10}, {"noop", 0}, {"touch-one", 5}} {
		ph := tab.Phases[i]
		if ph.Name != want.name {
			t.Errorf("phase %d named %q, want %q", i, ph.Name, want.name)
		}
		if got := ph.Snap.Counters["build.rebuilds"]; got != want.rebuilds {
			t.Errorf("%s phase: build.rebuilds delta = %d, want %d", want.name, got, want.rebuilds)
		}
	}
}
