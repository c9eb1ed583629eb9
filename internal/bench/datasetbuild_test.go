package bench

import (
	"strconv"
	"testing"

	"repro/internal/build"
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

// TestDatasetBuildAddressesGolden pins the content address of every
// derivation of the experiment's graph over a fixed source generation
// to the bytes the build system produced before the query selection
// became one type: a change to how a transform is validated or
// converted must not move an address, or every cached derivation
// would rebuild.
func TestDatasetBuildAddressesGolden(t *testing.T) {
	want := map[string]string{
		"a-imu":          "ea188cd523d1feecaa3e8a0f489c107e8dd7fd503860bc1e4e58a79670634bd4",
		"a-imu-half":     "9168be853459118f0be2981dcc089cf9cdcaf652a32cfcdcd3fbd14f7aac99c6",
		"a-imu-quarter":  "d6914187a1667370f4273bd5d09da5a7eea25809c869d0fdc50bc8ecc291e5a1",
		"a-early":        "904733deb1e2a25e694b1d6295dc8dc9d69a52f6e1299a934882bf4519e89b3f",
		"a-early-sparse": "04ab3542c6216d7fd47108644c952bc23aaf8dd2820acf669a61c75299db0066",
		"b-cam":          "3d128d3719bb83d5a7a399305b0145c11456bef9edd75348ba887a0c5042c0d7",
		"b-cam-half":     "3ceec5f415e845f7c298cc8262642f4d5e8a9c40b94abbe078526cca5203200e",
		"b-late":         "a49ae7265c16f072d134fef006e0edef66f6fde0ded4c1a534d171342072ad71",
		"b-late-half":    "f49db844165e88a87628bf4f0d2fbc42e7fe41e3e10a91e5f5de679a1a48c606",
		"b-late-quarter": "7c1ac951f2f346d4142f206b49a66cf290b1764c35a2a857969fc9129bbfe099",
	}
	g, err := datasetBuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Derivations) != len(want) {
		t.Fatalf("graph has %d derivations, golden %d", len(g.Derivations), len(want))
	}
	for _, d := range g.Derivations {
		got, err := build.Address(d.From, 7, d.TransformSpec)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if got != want[d.Name] {
			t.Errorf("%s: address %s, want %s", d.Name, got, want[d.Name])
		}
	}
}
