package pool

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/msgs"
	"repro/internal/obs"
	"repro/internal/rosbag"
)

// writeBag writes a source bag with `topics` IMU topics of `per`
// messages each. Many small topics make a cold open expensive (one
// connection load per topic plus the tag-table build) while queries
// stay cheap — the shape the handle cache is for.
func writeBag(t *testing.T, path string, topics, per int) {
	t.Helper()
	w, f, err := rosbag.Create(path, rosbag.WriterOptions{ChunkThreshold: 4096})
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000)
	for i := 0; i < topics; i++ {
		topic := fmt.Sprintf("/sensor%02d", i)
		for j := 0; j < per; j++ {
			ts := bagio.TimeFromNanos(base + int64(j)*1e8)
			m := &msgs.Imu{Header: msgs.Header{Seq: uint32(j), Stamp: ts, FrameID: topic}}
			if err := w.WriteMsg(topic, ts, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func newBackend(t *testing.T, reg *obs.Registry) *core.BORA {
	t.Helper()
	b, err := core.New(filepath.Join(t.TempDir(), "backend"), core.Options{TimeWindow: time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// duplicate organizes src into the backend under name.
func duplicate(t *testing.T, b *core.BORA, src, name string) {
	t.Helper()
	if _, _, err := b.Duplicate(src, name); err != nil {
		t.Fatalf("Duplicate(%s): %v", name, err)
	}
}

// TestAcquireSingleflight: N concurrent Acquires of one cold bag must
// share a single handle and pay exactly one cold open (one core.open op
// in the registry — one tag-table build).
func TestAcquireSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	b := newBackend(t, reg)
	src := filepath.Join(t.TempDir(), "src.bag")
	writeBag(t, src, 3, 20)
	duplicate(t, b, src, "bag1")
	p := New(b, Options{})

	prev := reg.Snapshot()
	const clients = 16
	handles := make([]*core.Bag, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i], errs[i] = p.Acquire("bag1")
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("Acquire[%d]: %v", i, errs[i])
		}
		if handles[i] != handles[0] {
			t.Fatalf("Acquire[%d] returned a distinct handle", i)
		}
	}
	delta := reg.Snapshot().Delta(prev)
	if got := delta.Ops["core.open"].Count; got != 1 {
		t.Fatalf("%d concurrent Acquires performed %d cold opens, want 1", clients, got)
	}
	s := p.Stats()
	if s.HandleMisses != 1 || s.HandleHits != clients-1 {
		t.Fatalf("stats = %d misses / %d hits, want 1 / %d", s.HandleMisses, s.HandleHits, clients-1)
	}
	if got := delta.Counters["pool.handle_hits"]; got != clients-1 {
		t.Fatalf("pool.handle_hits counter = %d, want %d", got, clients-1)
	}
	if got := delta.Gauges["pool.handles_resident"]; got != 1 {
		t.Fatalf("pool.handles_resident gauge = %d, want 1", got)
	}
}

// TestEvictionLRU: past MaxBags the coldest handle falls out and a
// re-Acquire of it is a fresh miss.
func TestEvictionLRU(t *testing.T) {
	b := newBackend(t, nil)
	src := filepath.Join(t.TempDir(), "src.bag")
	writeBag(t, src, 3, 10)
	for _, name := range []string{"a", "b", "c"} {
		duplicate(t, b, src, name)
	}
	p := New(b, Options{maxBags: 2})
	for _, name := range []string{"a", "b"} {
		if _, err := p.Acquire(name); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b is the LRU victim when c arrives.
	if _, err := p.Acquire("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire("c"); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.HandleEvictions != 1 || s.HandlesResident != 2 {
		t.Fatalf("after eviction: %d evictions, %d resident, want 1, 2", s.HandleEvictions, s.HandlesResident)
	}
	// a survived (recently used), b did not.
	if _, err := p.Acquire("a"); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().HandleHits; got != s.HandleHits+1 {
		t.Fatalf("re-Acquire of retained bag was not a hit (hits %d -> %d)", s.HandleHits, got)
	}
	if _, err := p.Acquire("b"); err != nil {
		t.Fatal(err)
	}
	s2 := p.Stats()
	if s2.HandleMisses != s.HandleMisses+1 {
		t.Fatalf("re-Acquire of evicted bag was not a miss (misses %d -> %d)", s.HandleMisses, s2.HandleMisses)
	}
}

// TestInvalidationAfterRepair: a Repair reseals the container under a
// fresh generation; the staleness probe must refuse the cached handle
// and open fresh, counting one invalidation.
func TestInvalidationAfterRepair(t *testing.T) {
	b := newBackend(t, nil)
	src := filepath.Join(t.TempDir(), "src.bag")
	writeBag(t, src, 3, 20)
	duplicate(t, b, src, "bag1")
	p := New(b, Options{})
	h1, err := p.Acquire("bag1")
	if err != nil {
		t.Fatal(err)
	}
	if h2, err := p.Acquire("bag1"); err != nil || h2 != h1 {
		t.Fatalf("pre-repair re-Acquire: handle %p vs %p, err %v", h2, h1, err)
	}
	// Dirty the container (abandoned atomic-write temp), then Repair —
	// which reseals under a new generation.
	root := filepath.Join(b.Root(), "bag1")
	if err := os.WriteFile(filepath.Join(root, ".tmp-debris"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := container.Repair(root)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-repair findings: %v", rep.Findings)
	}
	h3, err := p.Acquire("bag1")
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("Acquire served the pre-repair handle after the container was resealed")
	}
	s := p.Stats()
	if s.HandleInvalidations != 1 {
		t.Fatalf("HandleInvalidations = %d, want 1", s.HandleInvalidations)
	}
	if s.HandleHits != 1 || s.HandleMisses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1 / 2", s.HandleHits, s.HandleMisses)
	}
}

// TestInvalidationAfterRemoveAndReduplicate: every removal happens
// behind the pool's back (core.BORA.Remove) and is caught by the probe
// one Acquire later — as a failed open while the bag is gone, as a new
// generation once it has been re-duplicated, with or without an Acquire
// in between.
func TestInvalidationAfterRemoveAndReduplicate(t *testing.T) {
	b := newBackend(t, nil)
	src := filepath.Join(t.TempDir(), "src.bag")
	writeBag(t, src, 3, 20)
	duplicate(t, b, src, "bag1")
	p := New(b, Options{})
	h1, err := p.Acquire("bag1")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("bag1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire("bag1"); err == nil {
		t.Fatal("Acquire of a removed bag succeeded")
	}
	duplicate(t, b, src, "bag1")
	h2, err := p.Acquire("bag1")
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 {
		t.Fatal("Acquire served the pre-remove handle for the re-duplicated bag")
	}
	// Remove + re-duplicate with no Acquire in between: the pooled handle
	// is stale though its bag exists; the probe must detect the new
	// generation and reopen.
	if err := b.Remove("bag1"); err != nil {
		t.Fatal(err)
	}
	duplicate(t, b, src, "bag1")
	h3, err := p.Acquire("bag1")
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h2 {
		t.Fatal("Acquire served a stale handle after out-of-band remove + re-duplicate")
	}
	if n, err := h3.MessageCount(); err != nil || n != 60 {
		t.Fatalf("fresh handle MessageCount = %d, %v, want 60", n, err)
	}
}

// TestCachedReopenSpeedup is the acceptance criterion: re-acquiring a
// pooled handle must be at least 10x faster than a cold open. The probe
// is one ~200-byte meta read; a cold open is a readdir plus per-topic
// connection loads plus the tag-table build.
func TestCachedReopenSpeedup(t *testing.T) {
	b := newBackend(t, nil)
	src := filepath.Join(t.TempDir(), "src.bag")
	writeBag(t, src, 48, 5)
	duplicate(t, b, src, "bag1")
	p := New(b, Options{})
	if _, err := p.Acquire("bag1"); err != nil { // warm the pool
		t.Fatal(err)
	}
	const rounds = 32
	measure := func(open func() error) time.Duration {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := open(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// Best of three to shrug off scheduler noise on loaded CI machines.
	best := 0.0
	var cold, cached time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		cold = measure(func() error { _, err := b.Open("bag1"); return err })
		cached = measure(func() error { _, err := p.Acquire("bag1"); return err })
		if ratio := float64(cold) / float64(cached); ratio > best {
			best = ratio
		}
		if best >= 10 {
			break
		}
	}
	t.Logf("cold %v vs cached %v per %d reopens (best ratio %.1fx)", cold, cached, rounds, best)
	if best < 10 {
		t.Fatalf("cached reopen only %.1fx faster than cold open, want >= 10x", best)
	}
	s := p.Stats()
	if s.HandleHits < rounds {
		t.Fatalf("HandleHits = %d, want >= %d (cached path not exercised)", s.HandleHits, rounds)
	}
}

// TestBlockCacheRepeatQuery: the second identical query over a pooled
// handle must be served (at least partly) from the block cache, with
// identical bytes.
func TestBlockCacheRepeatQuery(t *testing.T) {
	b := newBackend(t, nil)
	src := filepath.Join(t.TempDir(), "src.bag")
	writeBag(t, src, 4, 50)
	duplicate(t, b, src, "bag1")
	p := New(b, Options{blockSize: 4096})
	bag, err := p.Acquire("bag1")
	if err != nil {
		t.Fatal(err)
	}
	scan := func() []string {
		var out []string
		err := bag.Query(core.QuerySpec{}, func(m core.MessageRef) error {
			out = append(out, m.Conn.Topic+"\x00"+string(m.Data))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := scan()
	s1 := p.Stats().Block
	if s1.FillBytes == 0 || s1.Misses == 0 {
		t.Fatalf("first scan filled nothing: %+v", s1)
	}
	second := scan()
	s2 := p.Stats().Block
	if s2.Hits <= s1.Hits {
		t.Fatalf("second scan hit the block cache %d times, want more than %d", s2.Hits, s1.Hits)
	}
	if len(first) != len(second) || len(first) != 4*50 {
		t.Fatalf("scan sizes differ: %d vs %d, want 200", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("message %d differs between cold and cached scans", i)
		}
	}
}

// TestBlockLRUAccounting unit-tests the byte-capped LRU: eviction from
// the cold end, refresh-in-place, and the oversized-block guard.
func TestBlockLRUAccounting(t *testing.T) {
	c := NewBlockLRU(1024, 256, nil)
	key := func(i int) container.BlockKey {
		return container.BlockKey{Path: "p", Gen: 1, Block: int64(i)}
	}
	block := func(b byte) []byte { return []byte{b, b, b, b} }
	for i := 0; i < 4; i++ {
		c.Put(key(i), make([]byte, 256))
	}
	if s := c.Stats(); s.Resident != 1024 || s.Blocks != 4 || s.Evictions != 0 {
		t.Fatalf("after fill: %+v", s)
	}
	// Promote block 0 so block 1 is the victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("resident block missed")
	}
	c.Put(key(4), make([]byte, 256))
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("LRU victim still resident")
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("promoted block was evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Resident != 1024 {
		t.Fatalf("after eviction: %+v", s)
	}
	// Refresh-in-place must adjust size, not duplicate.
	c.Put(key(4), block('x'))
	if s := c.Stats(); s.Blocks != 4 || s.Resident != 3*256+4 {
		t.Fatalf("after refresh: %+v", s)
	}
	if data, ok := c.Get(key(4)); !ok || string(data) != "xxxx" {
		t.Fatalf("refreshed block = %q, %v", data, ok)
	}
	// A block wider than the whole capacity must be refused.
	c.Put(key(99), make([]byte, 2048))
	if _, ok := c.Get(key(99)); ok {
		t.Fatal("oversized block was cached")
	}
}

// TestBlockLRUSameKeyRace: two queries that miss one block both fill it,
// so Get and the refreshing Put race on a single key. Get must take the
// block's slice under the lock; run under -race.
func TestBlockLRUSameKeyRace(t *testing.T) {
	c := NewBlockLRU(1024, 256, nil)
	key := container.BlockKey{Path: "p", Gen: 1}
	c.Put(key, make([]byte, 256))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if g%2 == 0 {
					c.Put(key, make([]byte, 256))
				} else if data, ok := c.Get(key); !ok || len(data) != 256 {
					t.Errorf("Get = %d bytes, %v; want the 256-byte block", len(data), ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolConcurrentMixedWorkload runs readers against a churning
// backend — Acquire + Query racing Remove, re-Duplicate and LRU
// eviction — and expects no panics or races (run under -race) and a
// consistent pool afterwards. Read errors are expected while a bag is
// mid-churn; corruption is not.
func TestPoolConcurrentMixedWorkload(t *testing.T) {
	b := newBackend(t, nil)
	src := filepath.Join(t.TempDir(), "src.bag")
	writeBag(t, src, 4, 25)
	names := []string{"r0", "r1", "r2"}
	for _, name := range names {
		duplicate(t, b, src, name)
	}
	p := New(b, Options{maxBags: 2}) // force eviction churn too
	var wg sync.WaitGroup
	const readers, iters = 8, 40
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := names[(r+i)%len(names)]
				bag, err := p.Acquire(name)
				if err != nil {
					continue // mid-churn: bag may be gone right now
				}
				_ = bag.Query(core.QuerySpec{Topics: []string{"/sensor00"}}, func(core.MessageRef) error { return nil })
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := b.Remove("r2"); err != nil {
				t.Errorf("Remove: %v", err)
				return
			}
			if _, _, err := b.Duplicate(src, "r2"); err != nil {
				t.Errorf("re-Duplicate: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	// The pool must still serve every bag correctly after the churn.
	for _, name := range names {
		bag, err := p.Acquire(name)
		if err != nil {
			t.Fatalf("post-churn Acquire(%s): %v", name, err)
		}
		if n, err := bag.MessageCount(); err != nil || n != 100 {
			t.Fatalf("post-churn MessageCount(%s) = %d, %v, want 100", name, n, err)
		}
	}
}

func BenchmarkColdOpen(b *testing.B) {
	back, src := benchBackend(b)
	benchDuplicate(b, back, src, "bag1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := back.Open("bag1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolAcquireHit(b *testing.B) {
	back, src := benchBackend(b)
	benchDuplicate(b, back, src, "bag1")
	p := New(back, Options{})
	if _, err := p.Acquire("bag1"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Acquire("bag1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolAcquireQueryParallel(b *testing.B) {
	back, src := benchBackend(b)
	benchDuplicate(b, back, src, "bag1")
	p := New(back, Options{})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bag, err := p.Acquire("bag1")
			if err != nil {
				b.Fatal(err)
			}
			err = bag.Query(core.QuerySpec{Topics: []string{"/sensor00"}}, func(core.MessageRef) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchBackend(b *testing.B) (*core.BORA, string) {
	b.Helper()
	dir := b.TempDir()
	src := filepath.Join(dir, "src.bag")
	writeBagB(b, src, 16, 10)
	back, err := core.New(filepath.Join(dir, "backend"), core.Options{TimeWindow: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	return back, src
}

func benchDuplicate(b *testing.B, back *core.BORA, src, name string) {
	b.Helper()
	if _, _, err := back.Duplicate(src, name); err != nil {
		b.Fatal(err)
	}
}

// writeBagB is writeBag for benchmarks (testing.B has no *testing.T).
func writeBagB(b *testing.B, path string, topics, per int) {
	b.Helper()
	w, f, err := rosbag.Create(path, rosbag.WriterOptions{ChunkThreshold: 4096})
	if err != nil {
		b.Fatal(err)
	}
	base := int64(1_000_000_000_000_000_000)
	for i := 0; i < topics; i++ {
		topic := fmt.Sprintf("/sensor%02d", i)
		for j := 0; j < per; j++ {
			ts := bagio.TimeFromNanos(base + int64(j)*1e8)
			m := &msgs.Imu{Header: msgs.Header{Seq: uint32(j), Stamp: ts, FrameID: topic}}
			if err := w.WriteMsg(topic, ts, m); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}
