package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
)

// waitFollowers blocks until n Follow queries have taken their cut of
// rec — the event a test must see before it writes "after the cut".
func waitFollowers(t *testing.T, rec *Recorder, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec.mu.Lock()
		got := len(rec.followers)
		rec.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d followers subscribed", got, n)
		}
		runtime.Gosched()
	}
}

// TestStrideIsOrderIndependent: Stride counts a topic's in-window
// messages in append order, so a topic recorded with out-of-order
// stamps yields the same messages under every ordering policy — in a
// classic bag, in a multi-segment live bag (the phase carries across
// the parts of a chain), and in a live Follow whose cut falls mid-topic
// (the phase carries into the tail).
func TestStrideIsOrderIndependent(t *testing.T) {
	stamps := []int64{5, 1, 4, 2, 3, 0, 9, 7, 8, 6}
	topics := []string{"/ooo", "/s1", "/s2", "/s3"}
	base := int64(1_700_000_000) * 1e9
	write := func(rec *Recorder, from, to int) {
		for i := from; i < to; i++ {
			for _, topic := range topics {
				sec := int64(i)
				if topic == "/ooo" {
					sec = stamps[i]
				}
				if err := rec.WriteRaw(topic, "sensor_msgs/Imu", bagio.TimeFromNanos(base+sec*1e9), []byte(fmt.Sprintf("m%d", i))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want := map[string][]string{}
	for _, topic := range topics {
		want[topic] = []string{"m0", "m3", "m6", "m9"}
	}
	check := func(name string, bag *Bag, spec QuerySpec) {
		t.Helper()
		spec.Stride = 3
		got := map[string][]string{}
		for _, r := range collect(t, func(fn func(MessageRef) error) error { return bag.Query(spec, fn) }) {
			got[r.Topic] = append(got[r.Topic], r.Data)
		}
		for _, ms := range got {
			sort.Strings(ms)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stride 3 delivered %v, want %v", name, got, want)
		}
	}
	checkPlans := func(layout string, bag *Bag) {
		t.Helper()
		check(layout+"/topic", bag, QuerySpec{})
		check(layout+"/pooled", bag, QuerySpec{Workers: 4})
		check(layout+"/time", bag, QuerySpec{Order: OrderTime})
		check(layout+"/follow-sealed", bag, QuerySpec{Follow: true})
	}

	b := newBORA(t)
	rec, err := b.CreateBag("classic")
	if err != nil {
		t.Fatal(err)
	}
	write(rec, 0, len(stamps))
	bag, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkPlans("classic", bag)

	// Live: a 4 s window rotates once (at stamp 9), so every chain has
	// two parts; the follower subscribes after four of ten messages.
	rec, err = b.CreateLiveBag("live", 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	write(rec, 0, 4)
	wired, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		check("live/follow-mid-topic", wired, QuerySpec{Follow: true})
	}()
	waitFollowers(t, rec, 1)
	write(rec, 4, len(stamps))
	if err := rec.Seal(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rec.Segments() < 2 {
		t.Fatalf("live recording has %d segments; the chains are single-part", rec.Segments())
	}
	sealed, err := b.Open("live")
	if err != nil {
		t.Fatal(err)
	}
	checkPlans("live-sealed", sealed)
}

// oracleMsg is one recorded message as the naive oracle sees it.
type oracleMsg struct {
	queryRec
	ord int // append ordinal within its topic
}

// oracle is every topic's messages in append order, read through
// Topic.Entries and a copy of each Topic.ReadMessageInto — no selection,
// no cursor, no extents.
type oracle map[string][]oracleMsg

func buildOracle(t *testing.T, bag *Bag) oracle {
	t.Helper()
	chains, err := bag.chains(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle{}
	for _, ch := range chains {
		for _, part := range ch.parts {
			entries, err := part.Entries()
			if err != nil {
				t.Fatal(err)
			}
			df, err := part.OpenData()
			if err != nil {
				t.Fatal(err)
			}
			var scratch []byte
			for _, e := range entries {
				data, err := part.ReadMessageInto(df, e, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				o[ch.name] = append(o[ch.name], oracleMsg{queryRec{ch.name, e.Time, string(data)}, len(o[ch.name])})
			}
			df.Close()
		}
	}
	return o
}

// selected applies a spec's topics, window and stride the slow way: per
// topic in request order, keep the in-window messages, then every
// Stride-th of those.
func (o oracle) selected(spec QuerySpec) []oracleMsg {
	topics := spec.Topics
	if len(topics) == 0 {
		for name := range o {
			topics = append(topics, name)
		}
		sort.Strings(topics)
	}
	end := spec.End
	if end.IsZero() {
		end = bagio.MaxTime
	}
	var out []oracleMsg
	for _, name := range topics {
		inWindow := 0
		for _, m := range o[name] {
			if m.Time.Before(spec.Start) || end.Before(m.Time) {
				continue
			}
			if spec.Stride <= 1 || inWindow%spec.Stride == 0 {
				out = append(out, m)
			}
			inWindow++
		}
	}
	return out
}

func byTime(ms []oracleMsg) {
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Time.Before(ms[j].Time) })
}

// delivered is what the callback must see, in order: the oracle's
// messages minus the predicate's rejects.
func delivered(spec QuerySpec, ms []oracleMsg) []queryRec {
	var out []queryRec
	for _, m := range ms {
		if spec.Predicate == nil || spec.Predicate(MessageRef{Time: m.Time, Data: []byte(m.Data)}) {
			out = append(out, m.queryRec)
		}
	}
	return out
}

// wantSealed is the expected delivery of spec on a bag with no tail.
func (o oracle) wantSealed(spec QuerySpec) []queryRec {
	ms := o.selected(spec)
	if spec.Order == OrderTime || spec.Follow {
		byTime(ms)
	}
	return delivered(spec, ms)
}

// followWant is what a Follow query that subscribed after the log's
// first cut writes must deliver: the snapshot in time order, then the
// tail in write order (a message's place in the log).
func followWant(full oracle, log []diffWrite, cut int, spec QuerySpec) []queryRec {
	written := map[string][]int{}
	for i, w := range log {
		written[w.topic] = append(written[w.topic], i)
	}
	var snapshot, tail []oracleMsg
	for _, m := range full.selected(spec) {
		if written[m.Topic][m.ord] < cut {
			snapshot = append(snapshot, m)
		} else {
			tail = append(tail, m)
		}
	}
	byTime(snapshot)
	sort.Slice(tail, func(i, j int) bool {
		return written[tail[i].Topic][tail[i].ord] < written[tail[j].Topic][tail[j].ord]
	})
	return delivered(spec, append(snapshot, tail...))
}

type diffWrite struct {
	topic string
	time  bagio.Time
	data  []byte
}

// diffLog is a seeded recording: /a out of order with duplicate stamps,
// /b in order with zero-length payloads, /far stamped a day before
// every window the specs draw, and /late appearing only in the second
// half. Stamps drift upward so a 1 s live window rotates several times.
// With big set, /a's payloads are padded to a few KiB — its runs of
// adjacent messages cross any extent cap — and one in forty past
// 256 KiB, more than any extent holds.
func diffLog(rng *rand.Rand, n int, big bool) []diffWrite {
	base := int64(1_700_000_000) * 1e9
	log := make([]diffWrite, 0, n)
	for i := 0; i < n; i++ {
		w := diffWrite{topic: "/a", data: []byte(fmt.Sprintf("a%04d", i))}
		ns := base + int64(i)*2e7
		switch k := rng.Intn(10); {
		case i == 0:
		case k < 3:
			w.topic = "/b"
			w.data = make([]byte, rng.Intn(3)*7) // a third are empty
		case k == 3:
			w.topic = "/far"
			ns -= 86400e9
		case k == 4 && i > n/2:
			w.topic = "/late"
		}
		if w.topic == "/a" {
			ns += int64(rng.Intn(7)-3) * 1e8 // out of order, with repeats
			if big {
				pad := rng.Intn(4 << 10)
				if rng.Intn(40) == 0 {
					pad += 256 << 10
				}
				w.data = append(w.data, bytes.Repeat([]byte{byte(i)}, pad)...)
			}
		}
		w.time = bagio.TimeFromNanos(ns)
		log = append(log, w)
	}
	return log
}

func randomSpec(rng *rand.Rand, topics []string, span int64) QuerySpec {
	var spec QuerySpec
	if rng.Intn(3) > 0 {
		perm := rng.Perm(len(topics))[:1+rng.Intn(len(topics))]
		for _, i := range perm {
			spec.Topics = append(spec.Topics, topics[i])
		}
	}
	base := int64(1_700_000_000) * 1e9
	at := func() bagio.Time { return bagio.TimeFromNanos(base - 5e8 + rng.Int63n(span+1e9)) }
	switch rng.Intn(6) {
	case 0, 1:
		spec.Start, spec.End = at(), at()
		if spec.End.Before(spec.Start) {
			spec.Start, spec.End = spec.End, spec.Start
		}
	case 2:
		spec.Start = at()
	case 3:
		spec.End = at()
	}
	spec.Stride = []int{0, 1, 2, 3, 7}[rng.Intn(5)]
	if rng.Intn(3) == 0 {
		spec.Predicate = func(m MessageRef) bool { return (len(m.Data)+int(m.Time.NSec/1e7))%2 == 0 }
	}
	switch rng.Intn(4) {
	case 1:
		spec.Workers = []int{1, 2, 5, -1}[rng.Intn(4)]
	case 2:
		spec.Order = OrderTime
	case 3:
		spec.Follow = true
	}
	return spec
}

func describe(spec QuerySpec) string {
	return fmt.Sprintf("{Topics:%v Start:%v End:%v Stride:%d Order:%d Workers:%d Follow:%v Predicate:%v}",
		spec.Topics, spec.Start, spec.End, spec.Stride, spec.Order, spec.Workers, spec.Follow, spec.Predicate != nil)
}

// checkAgainst runs spec on bag and compares with want: the exact
// sequence for the serial, time and Follow policies, per-topic streams
// for a pool (whose cross-topic interleaving is arbitrary).
func checkAgainst(t *testing.T, bag *Bag, spec QuerySpec, want []queryRec) {
	t.Helper()
	got := collect(t, func(fn func(MessageRef) error) error { return bag.Query(spec, fn) })
	if spec.Workers != 0 {
		if !reflect.DeepEqual(byTopic(got), byTopic(want)) {
			t.Errorf("%s: per-topic streams differ from the oracle (%d msgs, want %d)", describe(spec), len(got), len(want))
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: delivery differs from the oracle (%d msgs, want %d)", describe(spec), len(got), len(want))
	}
}

// TestExecutorDifferential drives random specs over random recordings
// through every policy and compares each delivery with the oracle.
// Classic seeds query the sealed container (seeds 1, 5 and 9 through a
// block cache, runs served as slices of a block; 3 and 7 straight off
// the data files, the extent path; 7 and 9 with payloads larger than an
// extent and runs that cross one, 9 behind 256 B blocks that most /a
// payloads straddle); live seeds also query the wired handle
// mid-recording, run Follow queries across the cut, and then query the
// sealed multi-segment bag.
func TestExecutorDifferential(t *testing.T) {
	const writes, specsPerBag = 300, 60
	allTopics := []string{"/a", "/b", "/far", "/late"}
	span := int64(writes) * 2e7
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 9} {
		rng := rand.New(rand.NewSource(seed))
		big := seed >= 7
		log := diffLog(rng, writes, big)
		if big {
			huge := 0
			for _, w := range log {
				if len(w.data) > 256<<10 {
					huge++
				}
			}
			if huge < 2 {
				t.Fatalf("seed %d: %d payloads larger than an extent, want several", seed, huge)
			}
		}
		b := newBORA(t)
		record := func(rec *Recorder, ws []diffWrite) {
			for _, w := range ws {
				if err := rec.WriteRaw(w.topic, "bora_test/Msg", w.time, w.data); err != nil {
					t.Fatal(err)
				}
			}
		}
		var sealed *Bag
		if seed%2 == 1 {
			rec, err := b.CreateBag("bag")
			if err != nil {
				t.Fatal(err)
			}
			record(rec, log)
			if sealed, err = rec.Close(); err != nil {
				t.Fatal(err)
			}
			switch {
			case seed == 9:
				setBlockCache(sealed, newTestBlockCache(256))
			case seed%4 == 1:
				setBlockCache(sealed, newTestBlockCache(4096))
			}
		} else {
			rec, err := b.CreateLiveBag("bag", time.Second)
			if err != nil {
				t.Fatal(err)
			}
			cut := writes/3 + rng.Intn(writes/3)
			record(rec, log[:cut])
			wired, err := b.Open("bag")
			if err != nil {
				t.Fatal(err)
			}
			// Mid-recording, no tail yet: the wired handle full-scans its
			// parts (no time index on a building segment).
			prefix := buildOracle(t, wired)
			known := wired.Topics()
			for i := 0; i < specsPerBag/4; i++ {
				spec := randomSpec(rng, known, span)
				spec.Follow = false
				checkAgainst(t, wired, spec, prefix.wantSealed(spec))
			}
			// Follow across the cut: every follower subscribes at the same
			// point of the log, then the rest is written under them.
			specs := make([]QuerySpec, 8)
			gots := make([][]queryRec, len(specs))
			var wg sync.WaitGroup
			for i := range specs {
				specs[i] = randomSpec(rng, allTopics, span)
				specs[i].Follow, specs[i].Workers = true, 0
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					err := wired.Query(specs[i], func(m MessageRef) error {
						gots[i] = append(gots[i], queryRec{m.Conn.Topic, m.Time, string(m.Data)})
						return nil
					})
					if err != nil {
						t.Errorf("%s: %v", describe(specs[i]), err)
					}
				}(i)
			}
			waitFollowers(t, rec, len(specs))
			record(rec, log[cut:])
			if err := rec.Seal(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if rec.Segments() < 3 {
				t.Fatalf("seed %d: %d segments; the live recording should rotate", seed, rec.Segments())
			}
			if sealed, err = b.Open("bag"); err != nil {
				t.Fatal(err)
			}
			full := buildOracle(t, sealed)
			for i, spec := range specs {
				if want := followWant(full, log, cut, spec); !reflect.DeepEqual(gots[i], want) {
					t.Errorf("seed %d cut %d %s: live Follow differs from the oracle (%d msgs, want %d)",
						seed, cut, describe(spec), len(gots[i]), len(want))
				}
			}
		}
		o := buildOracle(t, sealed)
		if len(o["/far"]) == 0 || len(o["/late"]) == 0 {
			t.Fatalf("seed %d: log misses a topic kind: %d /far, %d /late", seed, len(o["/far"]), len(o["/late"]))
		}
		for i := 0; i < specsPerBag; i++ {
			spec := randomSpec(rng, allTopics, span)
			checkAgainst(t, sealed, spec, o.wantSealed(spec))
		}
	}
}
