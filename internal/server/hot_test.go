package server

import (
	"testing"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/pool"
)

// TestStatsReportsHotBags: queried traffic heats a bag through the
// pool's rate tracker and surfaces it in Stats.HotBags (and the
// server.hot_bags gauge) once past the pool's threshold.
func TestStatsReportsHotBags(t *testing.T) {
	reg := obs.NewRegistry()
	b := buildBackend(t, reg, 2, 5)
	// Hot after ~5 queries in the 10s window.
	srv, addr := startServer(t, b, Options{Pool: pool.New(b, pool.Options{HotQPS: 0.5})})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if hb := srv.Stats().HotBags; len(hb) != 0 {
		t.Fatalf("HotBags = %v before any traffic", hb)
	}
	for i := 0; i < 10; i++ {
		st, err := cl.Query("robot1", client.QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		for st.Next() {
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
	}
	stats := srv.Stats()
	if len(stats.HotBags) != 1 || stats.HotBags[0] != "robot1" {
		t.Fatalf("HotBags = %v, want [robot1]", stats.HotBags)
	}
	if g := reg.Gauge("server.hot_bags").Load(); g != 1 {
		t.Errorf("server.hot_bags gauge = %d, want 1", g)
	}
	// The wire STATS round-trip carries the list too.
	remote, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.HotBags) != 1 || remote.HotBags[0] != "robot1" {
		t.Errorf("remote HotBags = %v, want [robot1]", remote.HotBags)
	}
}

// TestServerServesThroughItsPool: a server given no pool builds one, so
// with nothing wired by the caller the second QUERY of a bag is a pool
// handle hit and a hammered bag is reported hot.
func TestServerServesThroughItsPool(t *testing.T) {
	b := buildBackend(t, nil, 1, 3)
	srv, addr := startServer(t, b, Options{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	query := func() {
		t.Helper()
		st, err := cl.Query("robot1", client.QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		for st.Next() {
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
	}
	query()
	query()
	if st := srv.Stats(); st.PoolMisses != 1 || st.PoolHits != 1 || st.PoolResident != 1 {
		t.Fatalf("after two queries: %d pool misses, %d hits, %d resident; want 1, 1, 1",
			st.PoolMisses, st.PoolHits, st.PoolResident)
	}
	// Just past pool.DefaultHotQPS over the tracker's 10 s window.
	hammer := int(pool.DefaultHotQPS*10) + 8
	for i := 2; i < hammer; i++ {
		query()
	}
	if hb := srv.Stats().HotBags; len(hb) != 1 || hb[0] != "robot1" {
		t.Fatalf("HotBags = %v after %d queries, want [robot1]", hb, hammer)
	}
}
