package build

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pool"
)

func newBackend(t *testing.T, reg *obs.Registry) *core.BORA {
	t.Helper()
	b, err := core.New(filepath.Join(t.TempDir(), "backend"), core.Options{TimeWindow: time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recordSource records n /imu and n/2 /tf messages under name, payloads
// seeded so two recordings with different seeds differ byte-for-byte.
func recordSource(t *testing.T, b *core.BORA, name string, n int, seed byte) {
	t.Helper()
	rec, err := b.CreateBag(name)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_600_000_000) * 1e9
	for i := 0; i < n; i++ {
		ts := bagio.TimeFromNanos(base + int64(i)*1e8)
		if err := rec.WriteRaw("/imu", "sensor_msgs/Imu", ts, []byte{seed, byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i < n/2 {
			if err := rec.WriteRaw("/tf", "tf2_msgs/TFMessage", ts, []byte{seed, byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// touchSource re-records name with different bytes: same logical bag,
// new sealed generation — the "source changed" event a build must see.
func touchSource(t *testing.T, b *core.BORA, name string, n int, seed byte) {
	t.Helper()
	if err := b.Remove(name); err != nil {
		t.Fatal(err)
	}
	recordSource(t, b, name, n, seed)
}

// treeHash digests every regular file under root (path and content),
// pinning "the build did not touch the output" byte-for-byte.
func treeHash(t *testing.T, root string) [32]byte {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\n%x\n", rel, sha256.Sum256(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func countMessages(t *testing.T, b *core.BORA, name string) map[string]int {
	t.Helper()
	bag, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	if err := bag.Query(core.QuerySpec{}, func(m core.MessageRef) error {
		got[m.Conn.Topic]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// fourGraph is the shared test graph: two independent sources, one
// derivation chain hanging off each, one second-order derivation.
//
//	src1 -> imu1 -> imu1-half        src2 -> window2
func fourGraph(t *testing.T) *Graph {
	t.Helper()
	base := 1_600_000_000.0
	g, err := NewGraph([]Derivation{
		{Name: "imu1-half", From: "imu1", TransformSpec: core.TransformSpec{Stride: 2}},
		{Name: "imu1", From: "src1", TransformSpec: core.TransformSpec{Topics: []string{"/imu"}}},
		{Name: "window2", From: "src2", TransformSpec: core.TransformSpec{StartSec: f64(base), EndSec: f64(base + 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func f64(v float64) *float64 { return &v }

// TestBuildIncremental pins the tentpole property end to end: a cold
// build materializes everything; an identical re-build materializes
// nothing (byte-identical outputs, cache-hit counters); touching one of
// two sources reruns exactly that source's derivation and its
// dependents.
func TestBuildIncremental(t *testing.T) {
	reg := obs.NewRegistry()
	b := newBackend(t, reg)
	recordSource(t, b, "src1", 40, 1)
	recordSource(t, b, "src2", 40, 1)
	bld := New(b, Options{Workers: 4})
	g := fourGraph(t)

	rebuilt := func(rs []Result) map[string]bool {
		out := map[string]bool{}
		for _, r := range rs {
			out[r.Name] = r.Rebuilt
		}
		return out
	}

	// Cold build: every derivation materializes.
	rs, err := bld.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if !r.Rebuilt || r.Gen == 0 || r.Address == "" {
			t.Fatalf("cold build result %+v", r)
		}
	}
	if hits, reb := reg.Counter("build.cache_hits").Load(), reg.Counter("build.rebuilds").Load(); hits != 0 || reb != 3 {
		t.Fatalf("cold build counters: hits=%d rebuilds=%d", hits, reb)
	}
	bytesCold := reg.Counter("build.bytes_materialized").Load()
	if bytesCold == 0 {
		t.Fatal("cold build materialized zero bytes")
	}
	// The derived data is correct: imu1 keeps the 40 /imu messages and
	// drops /tf; imu1-half keeps every other one; window2 keeps the
	// inclusive first-second window (11 /imu + 11 /tf).
	if got := countMessages(t, b, "imu1"); got["/imu"] != 40 || got["/tf"] != 0 {
		t.Errorf("imu1 content %v", got)
	}
	if got := countMessages(t, b, "imu1-half"); got["/imu"] != 20 {
		t.Errorf("imu1-half content %v", got)
	}
	if got := countMessages(t, b, "window2"); got["/imu"] != 11 || got["/tf"] != 11 {
		t.Errorf("window2 content %v", got)
	}

	hashes := map[string][32]byte{}
	gens := map[string]uint64{}
	for _, r := range rs {
		hashes[r.Name] = treeHash(t, filepath.Join(b.Root(), r.Name))
		gens[r.Name] = r.Gen
	}

	// Identical re-build: zero materialization, byte-identical outputs,
	// same addresses and generations, cache-hit counters observed.
	rs2, err := bld.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs2 {
		if r.Rebuilt {
			t.Errorf("no-op build rebuilt %s", r.Name)
		}
		if r.Address != rs[i].Address || r.Gen != gens[r.Name] {
			t.Errorf("no-op build moved %s: %+v vs %+v", r.Name, r, rs[i])
		}
		if h := treeHash(t, filepath.Join(b.Root(), r.Name)); h != hashes[r.Name] {
			t.Errorf("no-op build changed bytes of %s", r.Name)
		}
	}
	if hits := reg.Counter("build.cache_hits").Load(); hits != 3 {
		t.Errorf("no-op build cache hits = %d, want 3", hits)
	}
	if bytes := reg.Counter("build.bytes_materialized").Load(); bytes != bytesCold {
		t.Errorf("no-op build materialized %d bytes", bytes-bytesCold)
	}

	// Touch src1: exactly imu1 and its dependent imu1-half rerun;
	// window2 (off src2) stays cached byte-for-byte.
	touchSource(t, b, "src1", 40, 2)
	if deps := g.Dependents("imu1"); len(deps) != 1 || deps[0] != "imu1-half" {
		t.Fatalf("Dependents(imu1) = %v", deps)
	}
	rs3, err := bld.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"imu1": true, "imu1-half": true, "window2": false}
	for name, wantReb := range want {
		if got := rebuilt(rs3)[name]; got != wantReb {
			t.Errorf("after touch, %s rebuilt=%v, want %v", name, got, wantReb)
		}
	}
	if h := treeHash(t, filepath.Join(b.Root(), "window2")); h != hashes["window2"] {
		t.Error("touching src1 changed window2's bytes")
	}
	for _, name := range []string{"imu1", "imu1-half"} {
		if h := treeHash(t, filepath.Join(b.Root(), name)); h == hashes[name] {
			t.Errorf("touching src1 left %s's bytes unchanged", name)
		}
	}
	if hits, reb := reg.Counter("build.cache_hits").Load(), reg.Counter("build.rebuilds").Load(); hits != 4 || reb != 5 {
		t.Errorf("after touch counters: hits=%d rebuilds=%d, want 4, 5", hits, reb)
	}
}

// TestBuildPoolInvalidation is the regression test for serving derived
// containers through a daemon's handle pool while a builder — which
// knows nothing of that pool — rebuilds them: a pool over the same back
// end must see a derivation rebuilt under the same logical name on its
// next Acquire, through the generation-token probe alone.
func TestBuildPoolInvalidation(t *testing.T) {
	b := newBackend(t, nil)
	recordSource(t, b, "src", 30, 1)
	p := pool.New(b, pool.Options{})
	bld := New(b, Options{})
	d := Derivation{Name: "derived", From: "src", TransformSpec: core.TransformSpec{Topics: []string{"/imu"}}}

	r1, err := bld.BuildOne(d)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := p.Acquire("derived")
	if err != nil {
		t.Fatal(err)
	}
	if h1.Generation() != r1.Gen {
		t.Fatalf("pooled handle gen %d, build reported %d", h1.Generation(), r1.Gen)
	}

	touchSource(t, b, "src", 30, 2)
	r2, err := bld.BuildOne(d)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Rebuilt || r2.Gen == r1.Gen || r2.Address == r1.Address {
		t.Fatalf("touch did not force a distinct rebuild: %+v vs %+v", r2, r1)
	}

	h2, err := p.Acquire("derived")
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 {
		t.Fatal("Acquire served the stale pre-rebuild handle")
	}
	if h2.Generation() != r2.Gen {
		t.Fatalf("post-rebuild Acquire gen %d, want %d", h2.Generation(), r2.Gen)
	}
	if inv := p.Stats().HandleInvalidations; inv == 0 {
		t.Error("rebuild evicted no pooled handles")
	}
	// And the data behind the new handle is the new source's.
	var seed byte
	if err := h2.Query(core.QuerySpec{}, func(m core.MessageRef) error {
		seed = m.Data[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seed != 2 {
		t.Errorf("post-rebuild handle reads seed %d, want 2", seed)
	}
}

// TestBuildSingleflight: concurrent builds of one derivation share a
// single materialization.
func TestBuildSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	b := newBackend(t, reg)
	recordSource(t, b, "src", 30, 1)
	bld := New(b, Options{})
	d := Derivation{Name: "derived", From: "src", TransformSpec: core.TransformSpec{Stride: 3}}

	const clients = 8
	results := make([]Result, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = bld.BuildOne(d)
		}(i)
	}
	wg.Wait()
	var rebuilds int
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Rebuilt {
			rebuilds++
		}
		if results[i].Address != results[0].Address {
			t.Errorf("client %d computed address %s", i, results[i].Address)
		}
	}
	if rebuilds != 1 {
		t.Errorf("%d concurrent clients materialized %d times, want 1", clients, rebuilds)
	}
	if reb := reg.Counter("build.rebuilds").Load(); reb != 1 {
		t.Errorf("build.rebuilds = %d", reb)
	}
}

// TestBuildFailurePropagation: a broken derivation fails its dependents
// but not unrelated subgraphs, and a recording source is refused.
func TestBuildFailurePropagation(t *testing.T) {
	b := newBackend(t, nil)
	recordSource(t, b, "src", 20, 1)
	bld := New(b, Options{})
	g, err := NewGraph([]Derivation{
		{Name: "broken", From: "no-such-bag"},
		{Name: "downstream", From: "broken"},
		{Name: "fine", From: "src", TransformSpec: core.TransformSpec{Topics: []string{"/imu"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := bld.Build(g)
	if err == nil {
		t.Fatal("build of a graph with a missing source succeeded")
	}
	byName := map[string]Result{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	if byName["broken"].Err == nil || byName["downstream"].Err == nil {
		t.Errorf("failures not recorded: %+v", rs)
	}
	if byName["fine"].Err != nil || !byName["fine"].Rebuilt {
		t.Errorf("unrelated derivation did not build: %+v", byName["fine"])
	}

	rec, err := b.CreateLiveBag("live", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bld.BuildOne(Derivation{Name: "of-live", From: "live"}); err == nil {
		t.Error("derivation of a recording source accepted")
	}
	if _, err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildReplacesForeignOutput: a pre-existing unrelated bag at the
// output name is replaced, not trusted as a cache entry.
func TestBuildReplacesForeignOutput(t *testing.T) {
	b := newBackend(t, nil)
	recordSource(t, b, "src", 20, 1)
	recordSource(t, b, "derived", 4, 9) // squatter at the output name
	bld := New(b, Options{})
	r, err := bld.BuildOne(Derivation{Name: "derived", From: "src", TransformSpec: core.TransformSpec{Topics: []string{"/imu"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rebuilt || r.Messages != 20 {
		t.Fatalf("foreign output not rebuilt: %+v", r)
	}
	if got := countMessages(t, b, "derived"); got["/imu"] != 20 || got["/tf"] != 0 {
		t.Errorf("derived content %v", got)
	}
}

func TestBuildContextCancel(t *testing.T) {
	b := newBackend(t, nil)
	recordSource(t, b, "src", 20, 1)
	bld := New(b, Options{Workers: 1})
	g, err := NewGraph([]Derivation{
		{Name: "a", From: "src"},
		{Name: "b", From: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = bld.BuildContext(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
}
