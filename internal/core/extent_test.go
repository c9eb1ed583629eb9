package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

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
	base := int64(1_700_000_000) * 1e9
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i), byte(i >> 8), byte(i >> 16)}, size(i)/3+1)[:size(i)]
		if err := rec.WriteRaw("/t", "bora_test/Msg", bagio.TimeFromNanos(base+int64(i)*1e6), payload); err != nil {
			t.Fatal(err)
		}
	}
	bag, err := rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	return bag
}

// everyPolicy is one spec per ordering policy (pooled being topic order
// off the calling goroutine).
var everyPolicy = []struct {
	name string
	spec QuerySpec
}{
	{"topic order", QuerySpec{}},
	{"pooled", QuerySpec{Workers: 2}},
	{"time order", QuerySpec{Order: OrderTime}},
	{"follow (sealed)", QuerySpec{Follow: true}},
}

// TestDataReadsCountsExtents is the claim as a counter: over a plain
// file a full-axis scan of 10 000 × 345 B messages issues at most 1 % as
// many reads as it delivers messages — in every ordering policy — while
// a Stride 10 scan, whose survivors are never adjacent, issues exactly
// one per message and reads exactly the bytes it delivers. Behind a
// block cache the cursor reads a message at a time, and the counter
// says so. The same number reaches the query's attribution.
func TestDataReadsCountsExtents(t *testing.T) {
	const msgs, size = 10_000, 345
	bag := recordTopic(t, newBORA(t), "bag", msgs, func(int) int { return size })
	run := func(spec QuerySpec) (st Stats, n int, bytes int64, aq *obs.ActiveQuery) {
		t.Helper()
		before := bag.Stats()
		aq = &obs.ActiveQuery{}
		var mu sync.Mutex
		err := bag.QueryContext(obs.ContextWithQuery(context.Background(), aq), spec, func(m MessageRef) error {
			mu.Lock()
			n, bytes = n+1, bytes+int64(len(m.Data))
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		after := bag.Stats()
		return Stats{DataReads: after.DataReads - before.DataReads, BytesRead: after.BytesRead - before.BytesRead}, n, bytes, aq
	}
	for _, c := range everyPolicy {
		st, n, bytes, aq := run(c.spec)
		if n != msgs || bytes != msgs*size || st.BytesRead != bytes {
			t.Errorf("%s: delivered %d messages, %d bytes; BytesRead %d", c.name, n, bytes, st.BytesRead)
		}
		if st.DataReads == 0 || st.DataReads*100 > msgs {
			t.Errorf("%s: %d data reads for %d messages, want at most 1 %%", c.name, st.DataReads, msgs)
		}
		if got := aq.DataReads.Load(); got != int64(st.DataReads) {
			t.Errorf("%s: query attribution saw %d data reads, Stats %d", c.name, got, st.DataReads)
		}

		c.spec.Stride = 10
		st, n, bytes, _ = run(c.spec)
		if n != msgs/10 || st.DataReads != n {
			t.Errorf("%s stride 10: %d data reads for %d messages, want one each", c.name, st.DataReads, n)
		}
		if st.BytesRead != bytes {
			t.Errorf("%s stride 10: read %d bytes to deliver %d", c.name, st.BytesRead, bytes)
		}
	}

	bag.SetBlockCache(newTestBlockCache(1 << 20))
	if st, n, _, _ := run(QuerySpec{}); st.DataReads != n {
		t.Errorf("block cache: %d data reads for %d messages, want one each", st.DataReads, n)
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
func queryPrefix(bag *Bag, spec QuerySpec) ([]string, error) {
	var mu sync.Mutex
	var out []string
	err := bag.Query(spec, func(m MessageRef) error {
		mu.Lock()
		out = append(out, string(m.Data))
		mu.Unlock()
		return nil
	})
	return out, err
}

// TestTruncatedDataKeepsPrefix: a data file cut anywhere delivers, in
// every ordering policy, exactly the messages a message-at-a-time
// reader delivers — every message wholly before the cut, in order —
// and then fails with the same typed error; never a short extent
// reported as nothing, never a partial payload.
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
	total := int64(entries[msgs-1].PhysicalOffset) + int64(entries[msgs-1].Length)
	for _, c := range []struct {
		name string
		cut  int64
	}{
		// Deepest cut last: each truncates the file the one before left.
		{"last byte missing", total - 1},
		{"mid-extent", int64(entries[400].PhysicalOffset) + int64(entries[400].Length)/2},
		{"at a message boundary", int64(entries[250].PhysicalOffset)},
		{"mid-message", int64(entries[3].PhysicalOffset) + 1},
		{"at byte 0", 0},
	} {
		if err := os.Truncate(filepath.Join(topic.Dir(), container.DataFileName), c.cut); err != nil {
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
		for _, p := range everyPolicy {
			got, err := queryPrefix(cutBag, p.spec)
			if !errors.Is(err, container.ErrIndexBeyondData) {
				t.Errorf("%s, %s: err = %v, want ErrIndexBeyondData", c.name, p.name, err)
			}
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s, %s: failed with %q, the per-message reader with %q", c.name, p.name, err, wantErr)
			}
			if len(got) != len(want) {
				t.Errorf("%s, %s: delivered %d messages, the per-message reader %d", c.name, p.name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s, %s: message %d differs (%d bytes, want %d)", c.name, p.name, i, len(got[i]), len(want[i]))
					break
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
		got, err := queryPrefix(corrupt, p.spec)
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
