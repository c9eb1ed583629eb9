package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/obs"
)

// recordTopic records n messages of size(i) bytes on /t into a classic
// bag (uncached: no block cache is set) and returns it sealed.
func recordTopic(t *testing.T, b *BORA, name string, n int, size func(i int) int) *Bag {
	t.Helper()
	rec, err := b.CreateBag(name)
	if err != nil {
		t.Fatal(err)
	}
	writeTopic(t, rec, 0, n, size)
	bag, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	return bag
}

// writeTopic writes messages lo..hi-1 of recordTopic's sequence to rec.
func writeTopic(t *testing.T, rec *Recorder, lo, hi int, size func(i int) int) {
	t.Helper()
	base := int64(1_700_000_000) * 1e9
	for i := lo; i < hi; i++ {
		payload := bytes.Repeat([]byte{byte(i), byte(i >> 8), byte(i >> 16)}, size(i)/3+1)[:size(i)]
		if err := rec.WriteRaw("/t", "bora_test/Msg", bagio.TimeFromNanos(base+int64(i)*1e6), payload); err != nil {
			t.Fatal(err)
		}
	}
}

// everyPolicy is one selection and plan per ordering policy.
var everyPolicy = []struct {
	name string
	spec QuerySpec
	ex   Exec
}{
	{"topic order", QuerySpec{}, Exec{}},
	{"time order", QuerySpec{Order: OrderTime}, Exec{}},
	{"follow (sealed)", QuerySpec{Follow: true}, Exec{}},
}

// TestDataReadsCountsExtents is the claim as a counter: over a plain
// file a full-axis scan of 10 000 × 345 B messages issues at most 1 % as
// many reads as it delivers messages — in every ordering policy, and in
// a live Follow tail whose journal batches hold the messages — while
// a Stride 10 scan, whose survivors are never adjacent, issues exactly
// one per message and reads exactly the bytes it delivers. Behind a
// block cache the same bounds hold: a run inside one cached block is one
// read. The same number reaches the query's attribution.
func TestDataReadsCountsExtents(t *testing.T) {
	const msgs, size = 10_000, 345
	sizeOf := func(int) int { return size }
	b := newBORA(t)
	bag := recordTopic(t, b, "bag", msgs, sizeOf)
	type result struct {
		st    Stats
		n     int
		bytes int64
		aq    *obs.ActiveQuery
		err   error
	}
	// run queries bag with spec as ex says; first, when non-nil, runs
	// before the first message is counted.
	run := func(bag *Bag, spec QuerySpec, ex Exec, first func()) (r result) {
		before := bag.Stats()
		r.aq = &obs.ActiveQuery{}
		r.err = bag.Execute(obs.ContextWithQuery(context.Background(), r.aq), spec, ex, func(m MessageRef) error {
			if r.n == 0 && first != nil {
				first()
			}
			r.n, r.bytes = r.n+1, r.bytes+int64(len(m.Data))
			return nil
		})
		after := bag.Stats()
		r.st = Stats{DataReads: after.DataReads - before.DataReads, BytesRead: after.BytesRead - before.BytesRead}
		return r
	}
	sealed := func(spec QuerySpec, ex Exec) result { return run(bag, spec, ex, nil) }
	// tail follows a live recording of the same messages: the first is
	// the Follow snapshot's, and the callback holds it while the rest are
	// written, so the tail drains them as journal batches.
	tail := func(spec QuerySpec, ex Exec) result {
		name := fmt.Sprintf("live-stride-%d", spec.Stride)
		rec, err := b.CreateLiveBag(name, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		writeTopic(t, rec, 0, 1, sizeOf)
		live, err := b.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		started, release, done := make(chan struct{}), make(chan struct{}), make(chan result, 1)
		go func() { done <- run(live, spec, ex, func() { close(started); <-release }) }()
		select {
		case <-started:
		case r := <-done:
			t.Fatalf("the Follow query ended before its first message: %v", r.err)
		}
		writeTopic(t, rec, 1, msgs, sizeOf)
		close(release)
		if err := rec.Seal(); err != nil {
			t.Fatal(err)
		}
		return <-done
	}
	check := func(name string, spec QuerySpec, ex Exec, run func(QuerySpec, Exec) result) {
		r := run(spec, ex)
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		if r.n != msgs || r.bytes != msgs*size || r.st.BytesRead != r.bytes {
			t.Errorf("%s: delivered %d messages, %d bytes; BytesRead %d", name, r.n, r.bytes, r.st.BytesRead)
		}
		if r.st.DataReads == 0 || r.st.DataReads*100 > msgs {
			t.Errorf("%s: %d data reads for %d messages, want at most 1 %%", name, r.st.DataReads, msgs)
		}
		if got := r.aq.DataReads.Load(); got != int64(r.st.DataReads) {
			t.Errorf("%s: query attribution saw %d data reads, Stats %d", name, got, r.st.DataReads)
		}

		spec.Stride = 10
		if r = run(spec, ex); r.err != nil {
			t.Fatalf("%s stride 10: %v", name, r.err)
		}
		if r.n != msgs/10 || r.st.DataReads != r.n {
			t.Errorf("%s stride 10: %d data reads for %d messages, want one each", name, r.st.DataReads, r.n)
		}
		if r.st.BytesRead != r.bytes {
			t.Errorf("%s stride 10: read %d bytes to deliver %d", name, r.st.BytesRead, r.bytes)
		}
		if got := r.aq.DataReads.Load(); got != int64(r.st.DataReads) {
			t.Errorf("%s stride 10: query attribution saw %d data reads, Stats %d", name, got, r.st.DataReads)
		}
	}
	for _, c := range everyPolicy {
		check(c.name, c.spec, c.ex, sealed)
	}
	check("follow (live tail)", QuerySpec{Follow: true}, Exec{}, tail)

	setBlockCache(bag, newTestBlockCache(256<<10))
	for _, c := range everyPolicy {
		check("block cache, "+c.name, c.spec, c.ex, sealed)
	}
}

// perMessagePrefix is what a message-at-a-time reader gets out of a
// part: every payload up to the first entry Topic.ReadMessageInto fails on,
// and that failure.
func perMessagePrefix(t *testing.T, topic *container.Topic) ([]string, error) {
	t.Helper()
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	df, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	var out []string
	var scratch []byte
	for _, e := range entries {
		data, err := topic.ReadMessageInto(df, e, &scratch)
		if err != nil {
			return out, err
		}
		out = append(out, string(data))
	}
	return out, nil
}

// queryPrefix runs spec to its end or its first error and returns what
// was delivered before it.
func queryPrefix(bag *Bag, spec QuerySpec, ex Exec) ([]string, error) {
	var out []string
	err := bag.Execute(context.Background(), spec, ex, func(m MessageRef) error {
		out = append(out, string(m.Data))
		return nil
	})
	return out, err
}

// TestTruncatedDataKeepsPrefix: a data file cut anywhere delivers, in
// every ordering policy, over the plain file, behind a block cache of
// 1 KiB blocks that most messages straddle, through a mapping made after
// the cut and through a pooled handle's mapping made before it,
// exactly the messages a message-at-a-time reader delivers — every
// message wholly before the cut, in order — and then fails with the same
// typed error; never a short extent reported as nothing, never a partial
// payload.
//
// Then the same cuts are made during a query, by its first callback,
// after the part was opened (one-shot handle) or mapped (pooled handle):
// the query still ends with ErrIndexBeyondData, no crash, and every
// callback that returned saw a message of the original, in order. Over
// the file it is whole; through the mapping, bytes from the cut to the
// end of its page read as zeros (a page past the cut faults) — only a
// syscall per read could see the cut sooner (DESIGN §6) — and the query
// ends with the error all the same, the cursor's last run having
// measured the part again.
func TestTruncatedDataKeepsPrefix(t *testing.T) {
	const msgs = 600
	size := func(i int) int { return 200 + (i*37)%400 } // ≈ 240 KB: several extents
	b := newBORA(t)
	bag := recordTopic(t, b, "bag", msgs, size)
	topic, err := bag.Container().Topic("/t")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(topic.Dir(), container.DataFileName)
	orig, err := os.ReadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	// pooled is a long-lived mapped handle whose part is mapped whole
	// before any cut.
	pooled, err := b.Open("bag")
	if err != nil {
		t.Fatal(err)
	}
	pooled.MapData()
	if got, err := queryPrefix(pooled, QuerySpec{}, Exec{}); err != nil || len(got) != msgs {
		t.Fatalf("pooled handle before any cut: %d messages, %v", len(got), err)
	}
	total := int64(entries[msgs-1].PhysicalOffset) + int64(entries[msgs-1].Length)
	page := int64(os.Getpagesize())
	cuts := []struct {
		name string
		cut  int64
	}{
		// Deepest cut last: each truncates the file the one before left.
		{"last byte missing", total - 1},
		{"at a block boundary", int64(entries[500].PhysicalOffset) &^ (1<<10 - 1)},
		{"mid-extent", int64(entries[400].PhysicalOffset) + int64(entries[400].Length)/2},
		{"at a message boundary", int64(entries[250].PhysicalOffset)},
		{"mid-message", int64(entries[3].PhysicalOffset) + 1},
		{"at byte 0", 0},
	}
	for _, c := range cuts {
		if err := os.Truncate(dataPath, c.cut); err != nil {
			t.Fatal(err)
		}
		cutBag, err := b.Open("bag")
		if err != nil {
			t.Fatal(err)
		}
		cutTopic, err := cutBag.Container().Topic("/t")
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := perMessagePrefix(t, cutTopic)
		if !errors.Is(wantErr, container.ErrIndexBeyondData) || len(want) >= msgs {
			t.Fatalf("%s: the per-message reader delivered %d messages and failed with %v", c.name, len(want), wantErr)
		}
		cachedBag, err := b.Open("bag")
		if err != nil {
			t.Fatal(err)
		}
		setBlockCache(cachedBag, newTestBlockCache(1<<10))
		mappedBag, err := b.Open("bag")
		if err != nil {
			t.Fatal(err)
		}
		mappedBag.MapData()
		for _, p := range everyPolicy {
			for _, h := range []struct {
				name string
				bag  *Bag
			}{{p.name, cutBag}, {p.name + ", block cache", cachedBag}, {p.name + ", mapped after the cut", mappedBag}, {p.name + ", mapped before the cut", pooled}} {
				got, err := queryPrefix(h.bag, p.spec, p.ex)
				if !errors.Is(err, container.ErrIndexBeyondData) {
					t.Errorf("%s, %s: err = %v, want ErrIndexBeyondData", c.name, h.name, err)
				}
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s, %s: failed with %q, the per-message reader with %q", c.name, h.name, err, wantErr)
				}
				if len(got) != len(want) {
					t.Errorf("%s, %s: delivered %d messages, the per-message reader %d", c.name, h.name, len(got), len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s, %s: message %d differs (%d bytes, want %d)", c.name, h.name, i, len(got[i]), len(want[i]))
						break
					}
				}
			}
		}
	}

	// Cuts made during a query: the first callback cuts the file.
	oneShot, err := b.Open("bag")
	if err != nil {
		t.Fatal(err)
	}
	// original is message i as the cut file holds it: zeros from the cut
	// on, which is what a mapping reads up to the cut page's end.
	original := func(i int, cut int64) string {
		e := entries[i]
		b := bytes.Clone(orig[e.PhysicalOffset : e.PhysicalOffset+uint64(e.Length)])
		if kept := cut - int64(e.PhysicalOffset); kept < int64(len(b)) {
			clear(b[max(kept, 0):])
		}
		return string(b)
	}
	duringCuts := append(cuts[:len(cuts):len(cuts)], struct {
		name string
		cut  int64
	}{"at a page boundary", int64(entries[250].PhysicalOffset) &^ (page - 1)})
	for _, h := range []struct {
		name   string
		bag    *Bag
		zeroed bool // bytes past the cut may be delivered as zeros
	}{{"one-shot", oneShot, false}, {"mapped", pooled, true}} {
		for _, c := range duringCuts {
			for _, p := range everyPolicy {
				if err := os.WriteFile(dataPath, orig, 0o644); err != nil {
					t.Fatal(err)
				}
				var got []string
				err := h.bag.Execute(context.Background(), p.spec, p.ex, func(m MessageRef) error {
					got = append(got, string(m.Data))
					if len(got) == 1 {
						return os.Truncate(dataPath, c.cut)
					}
					return nil
				})
				name := fmt.Sprintf("cut during the query %s, %s handle, %s", c.name, h.name, p.name)
				if !errors.Is(err, container.ErrIndexBeyondData) {
					t.Errorf("%s: err = %v, want ErrIndexBeyondData", name, err)
				}
				if len(got) >= msgs && !h.zeroed { // a mapping delivers a last message cut in its page
					t.Errorf("%s: delivered all %d messages", name, len(got))
				}
				for i := range got {
					if got[i] != original(i, math.MaxInt64) && (!h.zeroed || got[i] != original(i, c.cut)) {
						t.Errorf("%s: message %d is not the original's (%d bytes, want %d)", name, i, len(got[i]), entries[i].Length)
						break
					}
				}
			}
		}
	}
}

// TestCorruptIndexEntryFailsBeforeAllocating: one index entry claiming
// 2 GiB makes a query fail by name — after the messages before it —
// without sizing a buffer from the claim; nothing oversized is left in
// scratchPool behind it. (At the parent the read allocated 2 GiB, failed
// with a bare EOF and pooled the buffer.)
func TestCorruptIndexEntryFailsBeforeAllocating(t *testing.T) {
	const msgs, bad = 50, 20
	b := newBORA(t)
	bag := recordTopic(t, b, "bag", msgs, func(int) int { return 100 })
	topic, err := bag.Container().Topic("/t")
	if err != nil {
		t.Fatal(err)
	}
	ixPath := filepath.Join(topic.Dir(), container.IndexFileName)
	ix, err := os.ReadFile(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	// The length field: u32 at byte 16 of the 28-byte entry.
	copy(ix[bad*container.IndexEntrySize+16:], []byte{0xff, 0xff, 0xff, 0x7f})
	if err := os.WriteFile(ixPath, ix, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		scratchPool.Get() // forget what earlier tests pooled
	}
	for _, p := range everyPolicy {
		corrupt, err := b.Open("bag")
		if err != nil {
			t.Fatal(err)
		}
		got, err := queryPrefix(corrupt, p.spec, p.ex)
		if !errors.Is(err, container.ErrIndexBeyondData) {
			t.Fatalf("%s: err = %v, want ErrIndexBeyondData", p.name, err)
		}
		for _, want := range []string{`"/t"`, fmt.Sprintf("entry %d ", bad), "length 2147483647"} {
			if !bytes.Contains([]byte(err.Error()), []byte(want)) {
				t.Errorf("%s: error %q does not name %s", p.name, err, want)
			}
		}
		if len(got) != bad {
			t.Errorf("%s: delivered %d messages before the corrupt entry, want %d", p.name, len(got), bad)
		}
		for i := 0; i < 8; i++ { // drain what the queries pooled
			s := scratchPool.Get().(*msgScratch)
			if cap(s.buf) > msgs*100 {
				t.Fatalf("%s: a %d-byte scratch was pooled against a %d-byte data file", p.name, cap(s.buf), msgs*100)
			}
		}
	}
}

// writeBlocked writes messages lo..hi-1 of a two-topic recording whose
// payloads run from empty to larger than a 1 KiB block: /b takes every
// third message, /a the rest, stamps interleaving the two.
func writeBlocked(t *testing.T, rec *Recorder, lo, hi int) {
	t.Helper()
	base := int64(1_700_000_000) * 1e9
	for i := lo; i < hi; i++ {
		topic := "/a"
		if i%3 == 0 {
			topic = "/b"
		}
		n := (i * 37) % 300
		if i%23 == 0 {
			n = 1<<10 + 200 + i // larger than a block
		}
		payload := bytes.Repeat([]byte{byte(i), byte(i >> 8), byte(i >> 16)}, n/3+1)[:n]
		if err := rec.WriteRaw(topic, "bora_test/Msg", bagio.TimeFromNanos(base+int64(i)*1e6), payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCachedRunsStopAtBlocks: through a block cache of 1 KiB blocks,
// over payloads from empty to larger than a block, a run ends where its
// head's block does, a head straddling two blocks is read alone, the
// short last block serves the file's tail, and every policy — topic
// order, time order, Follow over a sealed bag and a live Follow tail —
// delivers byte for byte what an uncached handle delivers
// (TestTruncatedDataKeepsPrefix cuts the file behind the same cache).
// Two time-order queries share one cached handle, as a daemon's clients
// share a pooled one (run under -race in CI).
func TestCachedRunsStopAtBlocks(t *testing.T) {
	const msgs, bs = 600, 1 << 10
	b := newBORA(t)
	rec, err := b.CreateBag("bag")
	if err != nil {
		t.Fatal(err)
	}
	writeBlocked(t, rec, 0, msgs)
	if _, err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	open := func(name string, cache container.BlockCache) *Bag {
		t.Helper()
		bag, err := b.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if cache != nil {
			setBlockCache(bag, cache)
		}
		return bag
	}
	topicOf := func(bag *Bag, name string) *container.Topic {
		t.Helper()
		topic, err := bag.Container().Topic(name)
		if err != nil {
			t.Fatal(err)
		}
		return topic
	}
	plain, cached := open("bag", nil), open("bag", newTestBlockCache(bs))

	// Where runs end: each topic drained the way a cursor drains it.
	var runs, straddles, larger int
	for _, name := range []string{"/a", "/b"} {
		topic, ref := topicOf(cached, name), topicOf(plain, name)
		entries, err := topic.Entries()
		if err != nil {
			t.Fatal(err)
		}
		size, err := topic.DataSize()
		if err != nil || size%bs == 0 {
			t.Fatalf("%s: %d bytes of data (err %v), want a short last block", name, size, err)
		}
		df, err := topic.OpenData()
		if err != nil {
			t.Fatal(err)
		}
		refDF, err := ref.OpenData()
		if err != nil {
			t.Fatal(err)
		}
		end := func(e container.IndexEntry) int64 { return int64(e.PhysicalOffset) + int64(e.Length) }
		var scratch, refScratch []byte
		view, err := topic.Index(obs.Span{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for sel := entries; len(sel) > 0; {
			data, k, err := topic.ReadExtentInto(df, view.Slice(len(entries)-len(sel), view.Len()), &scratch)
			if err != nil {
				t.Fatal(err)
			}
			head := sel[0]
			blockEnd := (int64(head.PhysicalOffset)/bs + 1) * bs
			switch {
			case end(head) > blockEnd:
				straddles++
				if head.Length > bs {
					larger++
				}
				if k != 1 {
					t.Errorf("%s: the head at %d straddles two blocks, yet the read covered %d entries", name, head.PhysicalOffset, k)
				}
			case end(sel[k-1]) > blockEnd:
				t.Errorf("%s: the run at %d ends at %d, past its block's end %d", name, head.PhysicalOffset, end(sel[k-1]), blockEnd)
			case k < len(sel) && end(sel[k]) <= min(blockEnd, size):
				t.Errorf("%s: the run at %d stopped at %d, before its block's end %d", name, head.PhysicalOffset, end(sel[k-1]), blockEnd)
			case k > 1:
				runs++
			}
			for _, e := range sel[:k] {
				want, err := ref.ReadMessageInto(refDF, e, &refScratch)
				if err != nil {
					t.Fatal(err)
				}
				at := e.PhysicalOffset - head.PhysicalOffset
				if !bytes.Equal(data[at:at+uint64(e.Length)], want) {
					t.Fatalf("%s: the message at %d differs from the uncached read", name, e.PhysicalOffset)
				}
			}
			sel = sel[k:]
		}
		df.Close()
		refDF.Close()
	}
	if runs == 0 || straddles == 0 || larger == 0 {
		t.Fatalf("%d runs, %d straddling heads, %d larger than a block: want some of each", runs, straddles, larger)
	}

	// Every policy, and a stride and a window, against the uncached handle.
	same := func(what string, want, got *Bag, spec QuerySpec, ex Exec) {
		t.Helper()
		read := func(bag *Bag) []queryRec {
			return collect(t, func(fn func(MessageRef) error) error { return bag.Execute(context.Background(), spec, ex, fn) })
		}
		w, g := read(want), read(got)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: delivered %d messages differing from the uncached handle's %d", what, len(g), len(w))
		}
	}
	base := int64(1_700_000_000) * 1e9
	for _, p := range everyPolicy {
		same(p.name, plain, cached, p.spec, p.ex)
	}
	same("time order, stride 3", plain, cached, QuerySpec{Order: OrderTime, Stride: 3}, Exec{})
	same("time order, windowed", plain, cached, QuerySpec{Order: OrderTime,
		Start: bagio.TimeFromNanos(base + 100e6), End: bagio.TimeFromNanos(base + 400e6)}, Exec{})

	// Two time-order queries at once on one cached handle.
	want := collect(t, func(fn func(MessageRef) error) error { return plain.Query(QuerySpec{Order: OrderTime}, fn) })
	shared := open("bag", newTestBlockCache(bs))
	gots := make([][]queryRec, 2)
	var wg sync.WaitGroup
	for i := range gots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := shared.Query(QuerySpec{Order: OrderTime}, func(m MessageRef) error {
				gots[i] = append(gots[i], queryRec{Topic: m.Conn.Topic, Time: m.Time, Data: string(m.Data)})
				return nil
			})
			if err != nil {
				t.Errorf("concurrent time order %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i, got := range gots {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("concurrent time order %d: delivered %d messages differing from the uncached handle's %d", i, len(got), len(want))
		}
	}

	// A live Follow tail on a handle given the cache, beside one without:
	// both subscribe mid-recording, then the rest is written under them.
	live, err := b.CreateLiveBag("live", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	writeBlocked(t, live, 0, msgs/2)
	liveCache := newTestBlockCache(bs)
	followers := []*Bag{open("live", nil), open("live", liveCache)}
	tails := make([][]queryRec, len(followers))
	for i, bag := range followers {
		wg.Add(1)
		go func(i int, bag *Bag) {
			defer wg.Done()
			err := bag.Query(QuerySpec{Follow: true}, func(m MessageRef) error {
				tails[i] = append(tails[i], queryRec{Topic: m.Conn.Topic, Time: m.Time, Data: string(m.Data)})
				return nil
			})
			if err != nil {
				t.Errorf("live Follow %d: %v", i, err)
			}
		}(i, bag)
	}
	waitFollowers(t, live, len(followers))
	writeBlocked(t, live, msgs/2, msgs)
	if err := live.Seal(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(tails[0]) != msgs || !reflect.DeepEqual(tails[1], tails[0]) {
		t.Errorf("live Follow tail: the cached handle delivered %d messages, the uncached %d, want %d each and equal", len(tails[1]), len(tails[0]), msgs)
	}
	if len(liveCache.m) != 0 {
		t.Errorf("the live-wired handle cached %d blocks of a growing file", len(liveCache.m))
	}
	sealedLive := open("live", newTestBlockCache(bs))
	same("sealed live bag, follow", open("live", nil), sealedLive, QuerySpec{Follow: true}, Exec{})
	same("sealed live bag, topic order", open("live", nil), sealedLive, QuerySpec{}, Exec{})
}
