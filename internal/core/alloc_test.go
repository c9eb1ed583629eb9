package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/obs"
	"repro/internal/raceenabled"
)

// testBlockCache is a minimal unbounded container.BlockCache so the
// alloc tests can exercise the zero-copy cache-hit path without
// importing internal/pool.
type testBlockCache struct {
	bs int64
	mu sync.Mutex
	m  map[container.BlockKey][]byte
}

func newTestBlockCache(bs int64) *testBlockCache {
	return &testBlockCache{bs: bs, m: map[container.BlockKey][]byte{}}
}

func (c *testBlockCache) BlockSize() int64 { return c.bs }

func (c *testBlockCache) Get(key container.BlockKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.m[key]
	return data, ok
}

func (c *testBlockCache) Put(key container.BlockKey, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = data
}

// setBlockCache plugs bc under every segment of a sealed bag; a
// live-wired handle keeps reading its growing files.
func setBlockCache(bag *Bag, bc container.BlockCache) {
	if bag.LiveWired() {
		return
	}
	for _, c := range bag.segs {
		c.SetBlockCache(bc)
	}
}

// cachedBag builds a bag whose container serves reads through a warm
// block cache — the steady-state serving configuration the allocation
// budgets are defined against.
func cachedBag(t *testing.T, seconds int) (*Bag, int) {
	t.Helper()
	return warmBag(t, seconds, 1<<20)
}

// warmBag is cachedBag with blocks of blockSize bytes; 0 sets no block
// cache, so reads go to the data files.
func warmBag(t *testing.T, seconds int, blockSize int64) (*Bag, int) {
	t.Helper()
	b := newBORA(t)
	src := makeSourceBag(t, t.TempDir(), seconds)
	bag, _, err := b.Duplicate(src, "bag1")
	if err != nil {
		t.Fatal(err)
	}
	if blockSize > 0 {
		bag.Container().SetBlockCache(newTestBlockCache(blockSize))
	}
	n := 0
	// Warm: loads entries, time indexes, and fills the block cache.
	if err := bag.Query(QuerySpec{}, func(m MessageRef) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return bag, n
}

// allocSink keeps the alloc-budget callbacks from being optimized away.
var allocSink int

// checkAllocBudget runs one full query and requires its allocations to
// be per-query overhead only — amortized zero per message. The strict
// assertion is skipped under the race detector (whose instrumentation
// allocates), but the query still runs.
func checkAllocBudget(t *testing.T, name string, msgs int, query func() error) {
	t.Helper()
	allocs := testing.AllocsPerRun(3, func() {
		if err := query(); err != nil {
			t.Fatal(err)
		}
	})
	perMsg := allocs / float64(msgs)
	t.Logf("%s: %.0f allocs per query over %d messages (%.3f/message)", name, allocs, msgs, perMsg)
	if raceenabled.Enabled {
		t.Log("race detector enabled: skipping strict alloc assertion")
		return
	}
	if perMsg >= 0.5 {
		t.Errorf("%s: %.3f allocs/message; the steady-state hot loop must be allocation-free per message", name, perMsg)
	}
}

// TestAllocBudgetSerialQuery pins the serial query hot loop (Fig 7
// full scan and the Fig 8 time-bounded scan, cache-hit reads) at zero
// steady-state allocations per message.
func TestAllocBudgetSerialQuery(t *testing.T) {
	bag, msgs := cachedBag(t, 20)
	checkAllocBudget(t, "serial full scan", msgs, func() error {
		return bag.Query(QuerySpec{}, func(m MessageRef) error {
			allocSink += len(m.Data)
			return nil
		})
	})
	start := bagio.TimeFromNanos(1_000_000_000_000_000_000 + 2e9)
	end := bagio.TimeFromNanos(1_000_000_000_000_000_000 + 12e9)
	bounded := 0
	if err := bag.Query(QuerySpec{Start: start, End: end}, func(m MessageRef) error { bounded++; return nil }); err != nil {
		t.Fatal(err)
	}
	checkAllocBudget(t, "serial time-bounded scan", bounded, func() error {
		return bag.Query(QuerySpec{Start: start, End: end}, func(m MessageRef) error {
			allocSink += len(m.Data)
			return nil
		})
	})
	checkStridedAllocBudget(t, bag, "serial", QuerySpec{}, start, end)
}

// checkStridedAllocBudget reruns spec strided, full-axis and windowed.
// A stride is decided on the index, so against the same query
// unstrided it may cost one selection slice per topic part and nothing
// per message — however few messages survive to amortize it over.
func checkStridedAllocBudget(t *testing.T, bag *Bag, name string, spec QuerySpec, start, end bagio.Time) {
	t.Helper()
	allocs := func(spec QuerySpec) float64 {
		return testing.AllocsPerRun(3, func() {
			err := bag.Query(spec, func(m MessageRef) error {
				allocSink += len(m.Data)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	parts := float64(len(bag.Topics())) // a classic bag: one part per topic
	for _, c := range []struct {
		name       string
		start, end bagio.Time
	}{
		{name + " strided", bagio.Time{}, bagio.Time{}},
		{name + " strided time-bounded", start, end},
	} {
		spec.Start, spec.End = c.start, c.end
		spec.Stride = 0
		plain := allocs(spec)
		spec.Stride = 3
		strided := allocs(spec)
		t.Logf("%s: %.0f allocs per query, %.0f unstrided", c.name, strided, plain)
		if !raceenabled.Enabled && strided > plain+parts {
			t.Errorf("%s: %.0f allocs per query vs %.0f unstrided; budget is one slice per part (%.0f)", c.name, strided, plain, parts)
		}
	}
}

// leastRepeatAlloc is the least a repeat of query allocates, in bytes,
// over five runs: a sync.Pool may miss now and then (a GC cycle, a
// goroutine moved to another P), a buffer made per query would show in
// every run.
func leastRepeatAlloc(t *testing.T, query func() error) uint64 {
	t.Helper()
	least := uint64(1 << 62)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		if err := query(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestAllocBudgetUncachedScan is the same budget with no block cache,
// where every read is an extent into a pooled scratch: zero allocations
// per message in topic and in time order, and the extent buffers come
// back out of scratchPool — a repeat of the query allocates less than
// one extent's worth of bytes in all.
func TestAllocBudgetUncachedScan(t *testing.T) {
	bag, msgs := warmBag(t, 20, 0)
	sink := func(m MessageRef) error {
		allocSink += len(m.Data)
		return nil
	}
	for _, c := range []struct {
		name string
		spec QuerySpec
	}{
		{"uncached topic order", QuerySpec{}},
		{"uncached time order", QuerySpec{Order: OrderTime}},
	} {
		checkAllocBudget(t, c.name, msgs, func() error { return bag.Query(c.spec, sink) })
	}
	if raceenabled.Enabled {
		return // sync.Pool drops Puts at random under the race detector
	}
	least := leastRepeatAlloc(t, func() error { return bag.Query(QuerySpec{}, sink) })
	t.Logf("a repeated uncached topic-order query allocates %d bytes", least)
	if least >= 16<<10 {
		t.Errorf("a repeated query allocated %d bytes: its extent buffer did not come from scratchPool", least)
	}
}

// TestAllocBudgetMappedQuery: a pooled handle's mapped parts serve
// topic and time order at per-query overhead only, and a repeated query
// takes no read buffer at all — a run is a slice of the mapping — so it
// allocates less than one extent's worth of bytes in all.
func TestAllocBudgetMappedQuery(t *testing.T) {
	bag, msgs := warmBag(t, 20, 0)
	bag.MapData()
	sink := func(m MessageRef) error {
		allocSink += len(m.Data)
		return nil
	}
	for _, c := range []struct {
		name string
		spec QuerySpec
	}{
		{"mapped topic order", QuerySpec{}},
		{"mapped time order", QuerySpec{Order: OrderTime}},
	} {
		checkAllocBudget(t, c.name, msgs, func() error { return bag.Query(c.spec, sink) })
		if raceenabled.Enabled {
			continue // sync.Pool drops Puts at random under the race detector
		}
		least := leastRepeatAlloc(t, func() error { return bag.Query(c.spec, sink) })
		t.Logf("a repeated %s query allocates %d bytes", c.name, least)
		if least >= 4<<10 {
			t.Errorf("a repeated %s query allocated %d bytes: a mapped read took a buffer", c.name, least)
		}
	}
}

// TestAllocBudgetChronoQuery pins the chronological k-way merge at zero
// steady-state allocations per message (the per-topic filtered entry
// slices are per-query, not per-message), behind a block cache whose
// blocks hold whole topics and behind one of 1 KiB blocks, where runs
// end at blocks and heads straddle two of them. Each merge cursor reads
// into a scratch of its own, and that scratch comes out of scratchPool:
// a repeat of the query allocates less than one straddled head's
// buffer in all.
func TestAllocBudgetChronoQuery(t *testing.T) {
	for _, bs := range []int64{1 << 20, 1 << 10} {
		bag, msgs := warmBag(t, 20, bs)
		chrono := func() error {
			return bag.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
				allocSink += len(m.Data)
				return nil
			})
		}
		name := fmt.Sprintf("chrono merge, %d B blocks", bs)
		checkAllocBudget(t, name, msgs, chrono)
		base := int64(1_000_000_000_000_000_000)
		checkStridedAllocBudget(t, bag, name, QuerySpec{Order: OrderTime},
			bagio.TimeFromNanos(base+2e9), bagio.TimeFromNanos(base+12e9))
		if raceenabled.Enabled {
			continue // sync.Pool drops Puts at random under the race detector
		}
		least := leastRepeatAlloc(t, chrono)
		t.Logf("%s: a repeated query allocates %d bytes", name, least)
		if least >= 4<<10 {
			t.Errorf("%s: a repeated query allocated %d bytes: its cursors' scratch did not come from scratchPool", name, least)
		}
	}
}

// TestAllocBudgetWindowedQuery: a window of a topic recorded in time
// order is a range, not a walk. On a warm handle behind a block cache, a
// repeated bounded unstrided query allocates the same bytes for a 2 s
// window as for a 20 s one: its selections are views of the shared
// entry slices, with no positions list and nothing per entry. A strided
// repeat adds at most one selection slice per part.
func TestAllocBudgetWindowedQuery(t *testing.T) {
	bag, _ := warmBag(t, 30, 1<<20)
	base := int64(1_000_000_000_000_000_000)
	window := func(seconds int64, stride int) QuerySpec {
		return QuerySpec{Start: bagio.TimeFromNanos(base + 2e9), End: bagio.TimeFromNanos(base + (2+seconds)*1e9), Stride: stride}
	}
	query := func(spec QuerySpec) func() error {
		return func() error {
			return bag.Query(spec, func(m MessageRef) error {
				allocSink += len(m.Data)
				return nil
			})
		}
	}
	short, long := leastRepeatAlloc(t, query(window(2, 1))), leastRepeatAlloc(t, query(window(20, 1)))
	t.Logf("a repeated windowed query allocates %d bytes over 2 s, %d over 20 s", short, long)
	if short != long {
		t.Errorf("a 20 s window allocated %d bytes, a 2 s one %d: the selection costs something per entry", long, short)
	}
	allocs := func(spec QuerySpec) float64 { return testing.AllocsPerRun(3, func() { query(spec)() }) }
	parts := float64(len(bag.Topics())) // a classic bag: one part per topic
	plain, strided := allocs(window(20, 1)), allocs(window(20, 3))
	t.Logf("a 20 s window: %.0f allocs per query, %.0f strided", plain, strided)
	if strided > plain+parts {
		t.Errorf("a strided 20 s window: %.0f allocs per query vs %.0f unstrided; budget is one slice per part (%.0f)", strided, plain, parts)
	}
}

// TestAllocBudgetFollowTail pins the live tail, writer included, under
// the same per-message budget, in its most batch-heavy steady state:
// every message is written, then awaited, so each is a batch of its own.
// A batch's selections and survivor list reuse the slices of the batch
// before, and the reads land in the cursors' scratch. The cached case
// is a pooled handle: the pool plugs its block cache in, which a
// live-wired handle declines (a growing file must not be cached short),
// so it reads exactly as the plain one does.
func TestAllocBudgetFollowTail(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := fmt.Sprintf("Follow tail, cached=%v", cached)
		b := newBORA(t)
		rec, err := b.CreateLiveBag("live", time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		var ids []uint32
		for _, topic := range []string{"/imu", "/tf", "/camera/rgb/image_color"} {
			id, err := rec.AddConnection(topic, "bora_test/Msg")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		bag, err := b.Open("live")
		if err != nil {
			t.Fatal(err)
		}
		cache := newTestBlockCache(1 << 10)
		if cached {
			setBlockCache(bag, cache)
		}
		delivered, done := make(chan struct{}, 1), make(chan error, 1)
		go func() {
			done <- bag.Query(QuerySpec{Follow: true}, func(m MessageRef) error {
				allocSink += len(m.Data)
				delivered <- struct{}{}
				return nil
			})
		}()
		const msgs = 1000
		payload := make([]byte, 256)
		ns := int64(1e18)
		tail := func() error {
			for i := 0; i < msgs; i++ {
				ns += 1e5
				if err := rec.WriteMessage(ids[i%len(ids)], bagio.TimeFromNanos(ns), payload); err != nil {
					return err
				}
				select {
				case <-delivered:
				case err := <-done:
					return fmt.Errorf("the Follow query ended early: %v", err)
				}
			}
			return nil
		}
		if err := tail(); err != nil { // warm: topics, cursors and buffers sized
			t.Fatal(err)
		}
		checkAllocBudget(t, name, msgs, tail)
		if err := rec.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if len(cache.m) != 0 {
			t.Errorf("%s: the live handle cached %d blocks of a growing file", name, len(cache.m))
		}
	}
}

// TestAllocBudgetAttribution pins the cost of per-query attribution on
// the core hot path: running the same query with an *obs.ActiveQuery in
// the context may add at most one allocation per query over the
// untraced run — the counters are fetched once per query and bumped
// with atomics, never per message.
func TestAllocBudgetAttribution(t *testing.T) {
	bag, msgs := cachedBag(t, 20)
	run := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(3, func() {
			err := bag.QueryContext(ctx, QuerySpec{Order: OrderTime}, func(m MessageRef) error {
				allocSink += len(m.Data)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(context.Background())
	aq := &obs.ActiveQuery{ID: obs.QueryID{Trace: 1}}
	attributed := run(obs.ContextWithQuery(context.Background(), aq))
	t.Logf("attribution: %.0f allocs/query untraced, %.0f attributed (%d messages)", base, attributed, msgs)

	// The counters must have actually accumulated — a zero-cost no-op
	// would also pass the alloc check.
	if aq.IndexProbes.Load() <= 0 {
		t.Errorf("attributed query scanned no index entries: probes = %d", aq.IndexProbes.Load())
	}
	if aq.DataReads.Load() <= 0 {
		t.Errorf("attributed query issued no data reads: reads = %d", aq.DataReads.Load())
	}
	if raceenabled.Enabled {
		t.Log("race detector enabled: skipping strict alloc assertion")
		return
	}
	if attributed-base > 1 {
		t.Errorf("attribution costs %.0f extra allocs per query, budget is 1", attributed-base)
	}
}

// TestAllocBudgetRecorderWrite pins the write side's steady state
// beside the read-path budgets: WriteMessage is one lock, one index
// into the connection table and the segment writer's append — no
// per-message allocation from the connection lookup, in either layout.
// What remains is amortized slice growth (entry list, index buffer,
// time-index windows, live journal).
func TestAllocBudgetRecorderWrite(t *testing.T) {
	b := newBORA(t)
	classic, err := b.CreateBag("classic")
	if err != nil {
		t.Fatal(err)
	}
	live, err := b.CreateLiveBag("live", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	for _, rec := range []*Recorder{classic, live} {
		var ids []uint32
		for _, topic := range []string{"/imu", "/tf", "/camera/rgb/image_color"} {
			id, err := rec.AddConnection(topic, "bora_test/Msg")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		const batch = 3000
		ns := int64(1e18)
		write := func() error {
			for i := 0; i < batch; i++ {
				ns += 1e5 // 10 kHz: a handful of new time-index windows per run
				if err := rec.WriteMessage(ids[i%len(ids)], bagio.TimeFromNanos(ns), payload); err != nil {
					return err
				}
			}
			return nil
		}
		if err := write(); err != nil { // warm: topics created, buffers sized
			t.Fatal(err)
		}
		checkAllocBudget(t, "Recorder.WriteMessage live="+fmt.Sprint(rec.live), batch, write)
		if err := rec.Seal(); err != nil {
			t.Fatal(err)
		}
	}
}

// rec is one collected message for equivalence comparison.
type rec struct {
	topic string
	time  bagio.Time
	data  []byte
}

func recKey(r rec) string {
	return fmt.Sprintf("%s/%d.%09d/%x", r.topic, r.time.Sec, r.time.NSec, r.data)
}

// groundTruth reads every message of every topic one entry at a time
// (ReadMessageInto, copied out; no cache) — the
// reference the borrowed query plans must match byte for byte.
func groundTruth(t *testing.T, bag *Bag) []rec {
	t.Helper()
	var out []rec
	for _, name := range bag.Topics() {
		topic, err := bag.Container().Topic(name)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := topic.Entries()
		if err != nil {
			t.Fatal(err)
		}
		df, err := topic.OpenData()
		if err != nil {
			t.Fatal(err)
		}
		var scratch []byte
		for _, e := range entries {
			data, err := topic.ReadMessageInto(df, e, &scratch)
			if err != nil {
				df.Close()
				t.Fatal(err)
			}
			out = append(out, rec{topic: name, time: e.Time, data: bytes.Clone(data)})
		}
		df.Close()
	}
	return out
}

func sortRecs(recs []rec) {
	sort.Slice(recs, func(i, j int) bool { return recKey(recs[i]) < recKey(recs[j]) })
}

func compareRecs(t *testing.T, name string, got, want []rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d messages, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].topic != want[i].topic || got[i].time != want[i].time || !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("%s: message %d differs: %s vs %s", name, i, recKey(got[i]), recKey(want[i]))
		}
	}
}

// TestBorrowEquivalence: every query plan's borrowed payloads are
// byte-identical to the copying message-at-a-time reference — with the block
// cache on (zero-copy slices) and off (slices of a coalesced extent)
// and across serial, chrono, and parallel plans. Runs under -race in CI.
func TestBorrowEquivalence(t *testing.T) {
	for _, bs := range []int64{1 << 20, 1 << 10, 0} {
		bag, _ := warmBag(t, 5, bs)
		checkBorrowEquivalence(t, fmt.Sprintf("block size %d: ", bs), bag)
	}
}

func checkBorrowEquivalence(t *testing.T, name string, bag *Bag) {
	t.Helper()
	want := groundTruth(t, bag)
	collect := func(spec QuerySpec) []rec {
		var mu sync.Mutex // parallel plans deliver from several goroutines
		var got []rec
		err := bag.Query(spec, func(m MessageRef) error {
			r := rec{topic: m.Conn.Topic, time: m.Time, data: m.Copy()}
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Serial grouped-by-topic delivery matches append order exactly.
	compareRecs(t, name+"serial", collect(QuerySpec{}), want)

	// Chrono and parallel plans reorder across topics; compare as sets.
	wantSorted := append([]rec(nil), want...)
	sortRecs(wantSorted)
	for _, c := range []struct {
		name string
		spec QuerySpec
	}{
		{"chrono", QuerySpec{Order: OrderTime}},
		{"parallel", QuerySpec{Workers: 2}},
	} {
		got := collect(c.spec)
		sortRecs(got)
		compareRecs(t, name+c.name, got, wantSorted)
	}
}

// TestBorrowEquivalenceParallelRetain: a retaining callback (a ref with
// copied Data per message, from concurrent goroutines) observes the same bytes the
// copying reference does — the contract's escape hatch is sound even
// while scratch buffers are being reused underneath it. Runs under
// -race in CI.
func TestBorrowEquivalenceParallelRetain(t *testing.T) {
	bag, _ := cachedBag(t, 5)
	want := groundTruth(t, bag)
	sortRecs(want)
	var mu sync.Mutex
	var kept []MessageRef
	err := bag.Query(QuerySpec{Workers: 2}, func(m MessageRef) error {
		r := m
		r.Data = m.Copy()
		mu.Lock()
		kept = append(kept, r)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]rec, len(kept))
	for i, m := range kept {
		got[i] = rec{topic: m.Conn.Topic, time: m.Time, data: m.Data}
	}
	sortRecs(got)
	compareRecs(t, "parallel retain", got, want)
}
