package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/pool"
)

// bagName is the container every read workload duplicates its source
// bag into.
const bagName = "bag"

// coreAcc accumulates core.Bag.Stats deltas beside what the queries
// delivered, so a ratio is always taken over the same ops.
type coreAcc struct {
	entries, bytesRead, windows, queries float64
	msgs, bytes                          float64
}

func (a *coreAcc) add(before, after core.Stats, got sum) {
	a.entries += float64(after.EntriesScanned - before.EntriesScanned)
	a.bytesRead += float64(after.BytesRead - before.BytesRead)
	a.windows += float64(after.WindowsScanned - before.WindowsScanned)
	a.queries++
	a.msgs += float64(got.n)
	a.bytes += float64(got.bytes)
}

func (a coreAcc) sub(b coreAcc) coreAcc {
	return coreAcc{a.entries - b.entries, a.bytesRead - b.bytesRead, a.windows - b.windows,
		a.queries - b.queries, a.msgs - b.msgs, a.bytes - b.bytes}
}

// openBackend creates the instance's back end and duplicates the source
// bag into it — the one-time re-organization every read workload's
// set-up pays.
func (c *common) openBackend(src string, orc *oracle) (*core.BORA, error) {
	c.orc = orc
	b, err := core.New(filepath.Join(c.dir, "backend"), core.Options{Obs: c.tr.reg})
	if err != nil {
		return nil, err
	}
	_, st, err := b.Duplicate(src, bagName)
	if err != nil {
		return nil, err
	}
	if st.Messages != orc.total.n {
		return nil, fmt.Errorf("duplicate organized %d messages, source has %d", st.Messages, orc.total.n)
	}
	return b, nil
}

func (c *common) storedBag(b *core.BORA) (disk, payload int64) {
	disk, err := dirBytes(filepath.Join(b.Root(), bagName))
	c.tally.op("stored bytes", err, "")
	return disk, c.orc.total.bytes
}

// scanSmall is the cold topic scan: every op opens the container afresh
// and reads the five structured topics over the whole time axis. It
// bypasses pool, block cache, time index and network, so container
// reads, the serial plan and the index load do nearly all the work.
type scanSmall struct {
	common
	b         *core.BORA
	counts    sum // what every op must deliver; the same for all
	acc, acc0 coreAcc
}

func (w *scanSmall) setup(src string, orc *oracle) (err error) {
	if w.b, err = w.openBackend(src, orc); err != nil {
		return err
	}
	w.counts = orc.want(smallTopics, 0, 0, 1, false)
	for i := 0; i < 2; i++ {
		w.op(false)
	}
	return nil
}

func (w *scanSmall) op(verify bool) (sum, time.Duration) {
	want := w.counts
	if verify {
		want = w.orc.want(smallTopics, 0, 0, 1, true)
	}
	col := newCollector(verify, orderTopic)
	sp := w.tr.sp
	var st core.Stats

	t0 := time.Now()
	op := sp.begin("bench.op")
	s := sp.begin("core.Open")
	bag, err := w.b.Open(bagName)
	sp.end(s, err)
	if err == nil {
		s = sp.begin("core.Query")
		err = bag.Query(core.QuerySpec{Topics: smallTopics}, func(m core.MessageRef) error {
			col.add(m.Conn.Topic, m.Time, m.Data)
			return nil
		})
		sp.end(s, err)
		st = bag.Stats()
	}
	sp.end(op, err)
	d := time.Since(t0)

	w.tally.op("scan_small", err, col.check(want))
	w.acc.add(core.Stats{}, st, col.sum)
	return col.sum, d
}

func (w *scanSmall) round(verify bool) (int64, time.Duration, []float64) {
	return runOps(w.opsIn(verify, 1), func() (sum, time.Duration) { return w.op(verify) })
}

// opsIn is the number of ops in a round: the workload's constant in a
// measured round, and in a verification round only as many as it takes
// to see every op kind — hashing every payload is slow, and a
// verification round is not timed.
func (c *common) opsIn(verify bool, verifyOps int) int {
	if verify {
		return min(verifyOps, c.sz.ops)
	}
	return c.sz.ops
}

// runOps runs a closed loop of n ops and returns the messages they
// delivered, the wall time of the loop and each op's latency in ms.
func runOps(n int, op func() (sum, time.Duration)) (int64, time.Duration, []float64) {
	lat := make([]float64, 0, n)
	var msgs int64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		got, d := op()
		msgs += got.n
		lat = append(lat, ms(d))
	}
	return msgs, time.Since(t0), lat
}

func (w *scanSmall) mark() { w.acc0 = w.acc }

func (w *scanSmall) layers(out metrics) {
	w.spanMs(out, "core.open_ms", "core.Open", 1)
	w.spanMs(out, "core.query_ms", "core.Query", 1)
	a := w.acc.sub(w.acc0)
	out["core.scan_entries_per_msg"] = ratio(a.entries, a.msgs)
	out["core.scan_read_bytes_per_byte"] = ratio(a.bytesRead, a.bytes)
}

func (w *scanSmall) stored() (int64, int64) { return w.storedBag(w.b) }
func (w *scanSmall) close() error           { return nil }

// windowStride is the warm windowed query: a pooled handle over a block
// cache the dataset fits in, asked for the same 10 s window four ways.
// Disk and open cost vanish; the time index, the windowed and
// chronological plans, Stride filtering and the cache hit path remain.
type windowStride struct {
	common
	b *core.BORA
	p *pool.Pool
	k int // ops so far: drives the window schedule

	counts        map[[2]int]sum // (window start s, member) -> counts-only expectation
	all, stride   coreAcc
	all0, stride0 coreAcc
	pool0         pool.Stats
}

// quad is the four ways windowStride reads its window. An op runs all
// four, so the op's median cannot flip between a cheap and a dear kind.
var quad = []struct {
	span   string
	spec   core.QuerySpec
	order  int
	stride bool
}{
	{"core.Query.window", core.QuerySpec{}, orderTopic, false},
	{"core.Query.stride", core.QuerySpec{Stride: 10}, orderTopic, true},
	{"core.Query.chrono", core.QuerySpec{Order: core.OrderTime}, orderTime, false},
	{"core.Query.stride_small", core.QuerySpec{Stride: 10, Topics: smallTopics}, orderTopic, true},
}

// windowSeconds is the width of every windowed query in the benchmark.
const windowSeconds = 10

// windowAt returns the inclusive bounds of the 10 s window that starts
// startSec seconds into the recording.
func windowAt(startSec int) (start, end int64) {
	start = baseNs + int64(startSec)*1e9
	return start, start + windowSeconds*1e9 - 1
}

func (w *windowStride) setup(src string, orc *oracle) (err error) {
	if w.b, err = w.openBackend(src, orc); err != nil {
		return err
	}
	w.p = pool.New(w.b, pool.Options{})
	w.counts = map[[2]int]sum{}
	// One pass over every window position fills the block cache.
	for i := 0; i < w.positions(); i++ {
		w.op(false)
	}
	return nil
}

// positions is how many whole-second window starts the dataset has.
func (w *windowStride) positions() int {
	if n := w.sz.data.seconds - windowSeconds + 1; n > 1 {
		return n
	}
	return 1
}

func (w *windowStride) op(verify bool) (sum, time.Duration) {
	startSec := (7*w.k + int(w.seed%1000)) % w.positions()
	w.k++
	start, end := windowAt(startSec)
	var wants [4]sum
	for i, m := range quad {
		key := [2]int{startSec, i}
		if verify {
			wants[i] = w.orc.want(m.spec.Topics, start, end, m.spec.Stride, true)
		} else if c, ok := w.counts[key]; ok {
			wants[i] = c
		} else {
			wants[i] = w.orc.want(m.spec.Topics, start, end, m.spec.Stride, false)
			w.counts[key] = wants[i]
		}
	}
	sp := w.tr.sp
	var total sum
	var cols [4]*collector
	for i, m := range quad {
		cols[i] = newCollector(verify, m.order)
	}

	t0 := time.Now()
	op := sp.begin("bench.op")
	s := sp.begin("pool.Acquire")
	bag, err := w.p.Acquire(bagName)
	sp.end(s, err)
	for i := 0; err == nil && i < len(quad); i++ {
		m, col := quad[i], cols[i]
		spec := m.spec
		spec.Start, spec.End = bagio.TimeFromNanos(start), bagio.TimeFromNanos(end)
		before := bag.Stats()
		s = sp.begin(m.span)
		err = bag.Query(spec, func(r core.MessageRef) error {
			col.add(r.Conn.Topic, r.Time, r.Data)
			return nil
		})
		sp.end(s, err)
		after := bag.Stats()
		w.all.add(before, after, col.sum)
		if m.stride {
			w.stride.add(before, after, col.sum)
		}
	}
	sp.end(op, err)
	d := time.Since(t0)

	mismatch := ""
	for i, col := range cols {
		total.n += col.n
		total.bytes += col.bytes
		if mismatch == "" {
			if mismatch = col.check(wants[i]); mismatch != "" {
				mismatch = quad[i].span + ": " + mismatch
			}
		}
	}
	w.tally.op("window_stride", err, mismatch)
	return total, d
}

func (w *windowStride) round(verify bool) (int64, time.Duration, []float64) {
	return runOps(w.opsIn(verify, 8), func() (sum, time.Duration) { return w.op(verify) })
}

func (w *windowStride) mark() {
	w.all0, w.stride0, w.pool0 = w.all, w.stride, w.p.Stats()
}

func (w *windowStride) layers(out metrics) {
	for _, m := range quad {
		w.spanMs(out, "core.q_"+m.span[len("core.Query."):]+"_ms", m.span, 1)
	}
	w.spanMs(out, "pool.acquire_us", "pool.Acquire", 1e3)
	all, st := w.all.sub(w.all0), w.stride.sub(w.stride0)
	out["core.win_entries_per_msg"] = ratio(all.entries, all.msgs)
	out["core.windows_per_query"] = ratio(all.windows, all.queries)
	out["core.stride_entries_per_msg"] = ratio(st.entries, st.msgs)
	out["core.stride_read_bytes_per_byte"] = ratio(st.bytesRead, st.bytes)
	poolLayers(out, "pool.", w.pool0, w.p.Stats(), all.queries/float64(len(quad)), all.bytes)
}

// poolLayers writes the pool's counter ratios since before under
// prefix: how often a handle and a block were already there, how many
// blocks were evicted per op, and the bytes filled into the cache per
// byte delivered (≈ 0 when the working set fits, ≥ 1 when it thrashes).
func poolLayers(out metrics, prefix string, before, after pool.Stats, ops, deliveredBytes float64) {
	hh := float64(after.HandleHits - before.HandleHits)
	hm := float64(after.HandleMisses - before.HandleMisses)
	bh := float64(after.Block.Hits - before.Block.Hits)
	bm := float64(after.Block.Misses - before.Block.Misses)
	out[prefix+"handle_hit_ratio"] = ratio(hh, hh+hm)
	out[prefix+"block_hit_ratio"] = ratio(bh, bh+bm)
	out[prefix+"block_evictions_per_op"] = ratio(float64(after.Block.Evictions-before.Block.Evictions), ops)
	out[prefix+"fill_bytes_per_byte"] = ratio(float64(after.Block.FillBytes-before.Block.FillBytes), deliveredBytes)
}

func (w *windowStride) stored() (int64, int64) { return w.storedBag(w.b) }
func (w *windowStride) close() error           { return nil }
