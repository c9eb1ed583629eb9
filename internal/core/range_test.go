package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/obs"
)

// orderedLog is a seeded recording in time order: stamps step forward
// by a few milliseconds, now and then by a few seconds (a gap a window
// can fall into, and a live segment boundary), and often repeat in runs
// of equal stamps on one topic.
func orderedLog(rng *rand.Rand, n int) []diffWrite {
	topics := []string{"/x", "/y", "/z"}
	ns := int64(1_700_000_000) * 1e9
	log := make([]diffWrite, 0, n)
	for len(log) < n {
		switch k := rng.Intn(20); {
		case k == 0:
			ns += int64(2+rng.Intn(3)) * 1e9
		case k < 14:
			ns += int64(1+rng.Intn(50)) * 1e6
		}
		topic, run := topics[rng.Intn(len(topics))], 1
		if rng.Intn(3) == 0 {
			run += 1 + rng.Intn(3)
		}
		for ; run > 0 && len(log) < n; run-- {
			log = append(log, diffWrite{topic, bagio.TimeFromNanos(ns), []byte(fmt.Sprintf("%s%04d", topic, len(log)))})
		}
	}
	return log
}

// windowKinds is how many kinds of window rangeSpecs draws.
const windowKinds = 7

// rangeWindow draws a window of the given kind over a log's stamps: both
// edges on recorded stamps (equal stamps included), before every entry,
// after every entry, inside a gap between two entries, Start == End on a
// stamp and inside a gap, and unbounded or half-open.
func rangeWindow(rng *rand.Rand, kind int, log []diffWrite) (start, end bagio.Time) {
	at := func(i int) int64 { return log[i].time.Nanos() }
	gap := func() int64 { // a stamp strictly between two recorded ones
		for {
			if i := rng.Intn(len(log) - 1); at(i+1)-at(i) > 2 {
				return at(i) + 1 + rng.Int63n(at(i+1)-at(i)-1)
			}
		}
	}
	first, last := at(0), at(len(log)-1)
	var lo, hi int64
	switch kind {
	case 0:
		lo, hi = at(rng.Intn(len(log))), at(rng.Intn(len(log)))
		lo, hi = min(lo, hi), max(lo, hi)
	case 1:
		lo, hi = first-5e9, first-1
	case 2:
		lo, hi = last+1, last+5e9
	case 3:
		if lo, hi = gap(), gap(); hi < lo {
			lo, hi = hi, lo
		}
		for i := range log { // no entry between: shrink to the gap around lo
			if t := at(i); t > lo && t < hi {
				hi = t - 1
			}
		}
	case 4:
		lo = at(rng.Intn(len(log)))
		hi = lo
	case 5:
		lo = gap()
		hi = lo
	default:
		mid := at(rng.Intn(len(log)))
		switch rng.Intn(3) {
		case 1:
			return bagio.TimeFromNanos(mid), bagio.Time{}
		case 2:
			return bagio.Time{}, bagio.TimeFromNanos(mid)
		}
		return bagio.Time{}, bagio.Time{}
	}
	return bagio.TimeFromNanos(lo), bagio.TimeFromNanos(hi)
}

// rangeSpecs is every window kind under every stride 1–7, each with a
// random topic subset and a random policy; follow makes them all Follow
// queries, and otherwise none is.
func rangeSpecs(rng *rand.Rand, log []diffWrite, topics []string, follow bool) []QuerySpec {
	var specs []QuerySpec
	for kind := 0; kind < windowKinds; kind++ {
		for stride := 1; stride <= 7; stride++ {
			spec := QuerySpec{Stride: stride, Follow: follow}
			spec.Start, spec.End = rangeWindow(rng, kind, log)
			if rng.Intn(2) == 0 {
				for _, i := range rng.Perm(len(topics))[:1+rng.Intn(len(topics))] {
					spec.Topics = append(spec.Topics, topics[i])
				}
			}
			if !follow {
				switch rng.Intn(4) {
				case 2:
					spec.Order = OrderTime
				case 3:
					spec.Follow = true
				}
			}
			specs = append(specs, spec)
		}
	}
	return specs
}

// checkRanges runs specs on bag against the oracle o. With ordered set
// every part is in time order, so each must select by range: a query
// examines no more entries than it keeps plus two binary searches per
// part.
func checkRanges(t *testing.T, bag *Bag, o oracle, specs []QuerySpec, ordered bool) {
	t.Helper()
	for _, spec := range specs {
		before := bag.Stats().EntriesScanned
		checkAgainst(t, bag, spec, o.wantSealed(spec))
		if !ordered {
			continue
		}
		chains, err := bag.chains(spec.Topics, false)
		if err != nil {
			t.Fatal(err)
		}
		probes := 0
		for _, ch := range chains {
			for _, part := range ch.parts {
				entries, err := part.Entries()
				if err != nil {
					t.Fatal(err)
				}
				probes += 2 * bits.Len(uint(len(entries)))
			}
		}
		kept := len(o.selected(spec))
		if scanned := bag.Stats().EntriesScanned - before; scanned > kept+probes {
			t.Errorf("%s: examined %d entries to keep %d (≤ %d probes): a walk, not a range", describe(spec), scanned, kept, probes)
		}
	}
}

// snapshotAt runs the time-order policy under f's cut as follow does,
// but lets a test write between the cut and the selection.
func snapshotAt(t *testing.T, bag *Bag, f *follower, spec QuerySpec) []queryRec {
	t.Helper()
	return collect(t, func(fn func(MessageRef) error) error {
		if spec.End.IsZero() {
			spec.End = bagio.MaxTime
		}
		spec.Stride = max(spec.Stride, 1)
		q := &query{QuerySpec: spec, bag: bag, fn: fn, limits: f.limits, phases: map[string]int{}}
		return q.readTime(obs.Span{})
	})
}

// TestRangeSelectionMatchesOracle compares range selection with a naive
// filter-then-stride oracle over random parts recorded in time order,
// for every window kind (edges on runs of equal stamps; before, after
// and between all entries; Start == End) under strides 1–7 and every
// policy: a classic bag's sealed parts; a live bag's chain mid-recording,
// across a Follow cut and sealed, the stride phase carried from part to
// part and into the tail; and a snapshot whose limits cap a part inside
// its ordered prefix while entries beyond the cut are already published.
// On odd seeds one message just before the live cut steps back in time,
// so its part's cap lies beyond the ordered prefix and that part walks,
// between parts that take the range.
func TestRangeSelectionMatchesOracle(t *testing.T) {
	const writes = 240
	topics := []string{"/x", "/y", "/z"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := orderedLog(rng, writes)
		// Windows are drawn over the stamps as first recorded, in order.
		stamps := log
		specs := func(follow bool) []QuerySpec { return rangeSpecs(rng, stamps, topics, follow) }
		b := newBORA(t)
		record := func(rec *Recorder, ws []diffWrite) {
			for _, w := range ws {
				if err := rec.WriteRaw(w.topic, "bora_test/Msg", w.time, w.data); err != nil {
					t.Fatal(err)
				}
			}
		}

		rec, err := b.CreateBag("classic")
		if err != nil {
			t.Fatal(err)
		}
		record(rec, log)
		classic, err := rec.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkRanges(t, classic, buildOracle(t, classic), specs(false), true)

		ordered := seed%2 == 0
		cut := writes/3 + rng.Intn(writes/3)
		if !ordered {
			log = append([]diffWrite(nil), log...)
			log[cut-1].time = log[0].time // steps back on its topic, unless first on it
		}
		if rec, err = b.CreateLiveBag("live", time.Second); err != nil {
			t.Fatal(err)
		}
		record(rec, log[:cut])
		wired, err := b.Open("live")
		if err != nil {
			t.Fatal(err)
		}
		prefix := buildOracle(t, wired)
		mid := specs(false)
		for i := range mid {
			mid[i].Follow = false // a Follow of the wired bag would wait for the seal
		}
		checkRanges(t, wired, prefix, mid, ordered)

		// A cut, then writes the snapshot's selection already sees.
		f, err := rec.subscribe()
		if err != nil {
			t.Fatal(err)
		}
		record(rec, log[cut:cut+10])
		for _, spec := range specs(true) {
			if got, want := snapshotAt(t, wired, f, spec), prefix.wantSealed(spec); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: snapshot %s differs from the oracle (%d msgs, want %d)", seed, describe(spec), len(got), len(want))
			}
		}
		rec.unsubscribe(f)

		cut += 10
		follows := specs(true)
		gots := make([][]queryRec, len(follows))
		var wg sync.WaitGroup
		for i := range follows {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := wired.Query(follows[i], func(m MessageRef) error {
					gots[i] = append(gots[i], queryRec{m.Conn.Topic, m.Time, string(m.Data)})
					return nil
				})
				if err != nil {
					t.Errorf("%s: %v", describe(follows[i]), err)
				}
			}(i)
		}
		waitFollowers(t, rec, len(follows))
		record(rec, log[cut:])
		if err := rec.Seal(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if rec.Segments() < 3 {
			t.Fatalf("seed %d: %d segments; the live chains should have several parts", seed, rec.Segments())
		}
		sealed, err := b.Open("live")
		if err != nil {
			t.Fatal(err)
		}
		full := buildOracle(t, sealed)
		for i, spec := range follows {
			if want := followWant(full, log, cut, spec); !reflect.DeepEqual(gots[i], want) {
				t.Errorf("seed %d: live Follow %s differs from the oracle (%d msgs, want %d)", seed, describe(spec), len(gots[i]), len(want))
			}
		}
		checkRanges(t, sealed, full, specs(false), ordered)
	}
}

// TestOrderedPrefixTracksWriter: a live topic receives an out-of-order
// entry after a Follow cut. The snapshot, capped inside the ordered
// prefix, still selects by range although the entry is published by the
// time it selects; a later query, whose selection reaches past the
// prefix, walks — and both deliver what the oracle does. A part taken
// as ordered whole would binary-search past the late entry.
func TestOrderedPrefixTracksWriter(t *testing.T) {
	b := newBORA(t)
	rec, err := b.CreateLiveBag("live", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_700_000_000) * 1e9
	write := func(i int, ns int64) {
		if err := rec.WriteRaw("/t", "bora_test/Msg", bagio.TimeFromNanos(base+ns), []byte(fmt.Sprintf("m%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const n = 400
	for i := 0; i < n; i++ {
		write(i, int64(i/2)*1e7) // pairs of equal stamps, 10 ms apart
	}
	wired, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	prefix := buildOracle(t, wired)
	spec := QuerySpec{Start: bagio.TimeFromNanos(base + 5e8), End: bagio.TimeFromNanos(base + 1e9), Stride: 3, Order: OrderTime}

	f, err := rec.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	write(n, 7e8) // inside the window, long after its neighbours
	write(n+1, 2e9)
	before := wired.Stats().EntriesScanned
	snap := snapshotAt(t, wired, f, spec)
	rec.unsubscribe(f)
	if want := prefix.wantSealed(spec); !reflect.DeepEqual(snap, want) {
		t.Errorf("snapshot delivered %d msgs, want %d", len(snap), len(want))
	}
	if scanned := wired.Stats().EntriesScanned - before; scanned >= n/2 {
		t.Errorf("snapshot examined %d of %d entries: it walked, but its cap lies inside the ordered prefix", scanned, n)
	}

	full := buildOracle(t, wired)
	for _, spec := range []QuerySpec{spec, {Start: spec.Start, End: spec.End}} {
		before = wired.Stats().EntriesScanned
		checkAgainst(t, wired, spec, full.wantSealed(spec))
		if scanned := wired.Stats().EntriesScanned - before; scanned != n+2 {
			t.Errorf("%s: examined %d entries, want all %d: a part out of order walks", describe(spec), scanned, n+2)
		}
	}
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
}
