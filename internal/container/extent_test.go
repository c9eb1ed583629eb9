package container

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bagio"
)

// TestExtentRun is the planner's table: for each selection, the reads
// that draining it issues, as (first entry, entries, bytes). Draining is
// what a cursor does — plan the head run, come back with the rest.
func TestExtentRun(t *testing.T) {
	type read struct{ first, k, n int }
	// ents builds entries from (offset, length) pairs.
	ents := func(pairs ...uint64) []IndexEntry {
		var out []IndexEntry
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, IndexEntry{PhysicalOffset: pairs[i], LogicalOffset: pairs[i], Length: uint32(pairs[i+1])})
		}
		return out
	}
	const big = extentCap + 1
	half := uint64(extentCap/2 + 1)
	for _, c := range []struct {
		name    string
		entries []IndexEntry
		size    uint64 // data file length; 0 means "ends with the last entry"
		want    []read
	}{
		{"adjacent run", ents(0, 10, 10, 20, 30, 5), 0, []read{{0, 3, 35}}},
		{"one gap", ents(0, 10, 10, 20, 31, 5, 36, 4), 0, []read{{0, 2, 30}, {2, 2, 9}}},
		{"every tenth message", ents(0, 10, 100, 10, 200, 10), 0, []read{{0, 1, 10}, {1, 1, 10}, {2, 1, 10}}},
		// Time order sorted an out-of-order topic: adjacency is judged on
		// offsets as they come, so a backward step ends the run.
		{"non-monotone offsets", ents(20, 10, 30, 10, 0, 10, 10, 10, 40, 5), 0, []read{{0, 2, 20}, {2, 2, 20}, {4, 1, 5}}},
		{"zero-length payloads", ents(0, 0, 0, 7, 7, 0, 7, 0, 7, 3), 0, []read{{0, 5, 10}}},
		{"only zero-length", ents(5, 0, 5, 0), 5, []read{{0, 2, 0}}},
		{"larger than the cap, read alone", ents(0, 8, 8, big, 8+big, 8), 0, []read{{0, 1, 8}, {1, 1, big}, {2, 1, 8}}},
		{"run crosses the cap", ents(0, half, half, half, 2*half, 3), 0, []read{{0, 1, int(half)}, {1, 2, int(half) + 3}}},
		{"exactly the cap", ents(0, extentCap-4, extentCap-4, 4, extentCap, 1), 0, []read{{0, 2, extentCap}, {2, 1, 1}}},
		{"last entry ends at EOF", ents(0, 10, 10, 10), 20, []read{{0, 2, 20}}},
		{"file ends inside the run", ents(0, 10, 10, 10, 20, 10), 25, []read{{0, 2, 20}, {2, 1, 10}}},
	} {
		size := c.size
		if size == 0 {
			size = c.entries[len(c.entries)-1].end()
		}
		var got []read
		seen := map[uint64]bool{} // file bytes some read covered
		for first := 0; first < len(c.entries); {
			k, n := extentRun(viewOf(c.entries[first:]), size)
			if k < 1 {
				t.Fatalf("%s: planned %d entries at %d", c.name, k, first)
			}
			payload := 0
			for _, e := range c.entries[first : first+k] {
				payload += int(e.Length)
			}
			if payload != n {
				t.Errorf("%s: read at entry %d is %d bytes for %d bytes of messages: a gap byte was planned", c.name, first, n, payload)
			}
			for b := uint64(0); b < uint64(n); b++ {
				at := c.entries[first].PhysicalOffset + b
				if seen[at] {
					t.Fatalf("%s: byte %d planned twice", c.name, at)
				}
				seen[at] = true
			}
			got = append(got, read{first, k, n})
			first += k
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: planned %v, want %v", c.name, got, c.want)
		}
	}
}

// viewOf encodes entries as an index view.
func viewOf(entries []IndexEntry) IndexView {
	v := MakeIndexView(len(entries))
	for _, e := range entries {
		v = v.Append(e)
	}
	return v
}

// countingFile is a plain data file that counts the ReadAts issued
// against it.
type countingFile struct {
	*dataFile
	reads int
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.dataFile.ReadAt(p, off)
}

// drain reads sel through ReadExtentInto the way a cursor does and
// returns every payload, copied.
func drain(t *testing.T, topic *Topic, r DataReader, sel []IndexEntry, scratch *[]byte) ([][]byte, error) {
	t.Helper()
	var out [][]byte
	view := viewOf(sel)
	for len(sel) > 0 {
		buf, k, err := topic.ReadExtentInto(r, view.Slice(view.Len()-len(sel), view.Len()), scratch)
		if err != nil {
			return out, err
		}
		if k < 1 || k > len(sel) {
			t.Fatalf("ReadExtentInto covered %d of %d entries", k, len(sel))
		}
		for _, e := range sel[:k] {
			at := e.PhysicalOffset - sel[0].PhysicalOffset
			out = append(out, append([]byte(nil), buf[at:at+uint64(e.Length)]...))
		}
		sel = sel[k:]
	}
	return out, nil
}

// TestReadExtentIntoReadsRunsNotMessages: over a plain file a full scan
// of 10 000 × 345 B messages costs at most 1 % as many ReadAts as
// messages; every tenth message costs exactly one each, and no read
// carries a byte that is not delivered. Through a block cache the run is
// bounded by the head's block instead.
func TestReadExtentIntoReadsRunsNotMessages(t *testing.T) {
	const msgs, size = 10_000, 345
	payloads := make([][]byte, msgs)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, size)[:size]
	}
	topic := sealedTopic(t, payloads)
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	open := func() *countingFile {
		df, err := openTopicData(topic.dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { df.Close() })
		return &countingFile{dataFile: &df}
	}
	var scratch []byte

	full := open()
	got, err := drain(t, topic, full, entries, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, payloads) {
		t.Fatal("full scan through extents differs from what was appended")
	}
	if full.reads*100 > msgs {
		t.Errorf("full scan issued %d ReadAts for %d messages, want at most 1 %%", full.reads, msgs)
	}
	if cap(scratch) > 2*extentCap {
		t.Errorf("extent scratch grew to %d bytes, cap is %d", cap(scratch), extentCap)
	}

	var sel []IndexEntry
	for i := 0; i < len(entries); i += 10 {
		sel = append(sel, entries[i])
	}
	strided := open()
	got, err = drain(t, topic, strided, sel, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if strided.reads != len(sel) {
		t.Errorf("stride 10 issued %d ReadAts for %d messages, want one each (adjacency only, never a gap)", strided.reads, len(sel))
	}
	for i, p := range got {
		if !bytes.Equal(p, payloads[i*10]) {
			t.Fatalf("strided message %d differs", i)
		}
	}

	// Behind a block cache the run inside the head's block is served as
	// one slice of that block; a head straddling two blocks is copied
	// alone. A drain costs a few cache lookups per block, not one per
	// message.
	const bs = 4096
	cache := &countingCache{mapCache: newMapCache(bs)}
	topic.cache = cache
	cached, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	var noScratch []byte
	data, k, err := topic.ReadExtentInto(cached, viewOf(entries), &noScratch)
	if err != nil || k != bs/size || !bytes.Equal(data, bytes.Join(payloads[:k], nil)) {
		t.Errorf("cached reader: %d entries, err %v; want the %d whole in the first block", k, err, bs/size)
	}
	if cap(noScratch) != 0 {
		t.Errorf("a run inside one block grew the scratch to %d bytes; want a slice of the block", cap(noScratch))
	}
	if _, k, err := topic.ReadExtentInto(cached, viewOf(entries[bs/size:]), &noScratch); err != nil || k != 1 {
		t.Errorf("cached reader, head straddling two blocks: %d entries, err %v; want the head alone", k, err)
	}
	cache.gets = 0
	got, err = drain(t, topic, cached, entries, &scratch)
	if err != nil || !reflect.DeepEqual(got, payloads) {
		t.Fatalf("full scan through the block cache differs from what was appended (err %v)", err)
	}
	if blocks := (msgs*size + bs - 1) / bs; cache.gets > 3*blocks {
		t.Errorf("full scan through the block cache made %d lookups over %d blocks, want at most 3 per block", cache.gets, blocks)
	}
}

// countingCache is a mapCache that counts lookups.
type countingCache struct {
	*mapCache
	gets int
}

func (c *countingCache) Get(key BlockKey) ([]byte, bool) {
	c.gets++
	return c.mapCache.Get(key)
}

// corruptEntry rewrites entry ord of the topic's index file on disk.
func corruptEntry(t *testing.T, topic *Topic, ord int, e IndexEntry) {
	t.Helper()
	path := filepath.Join(topic.dir, IndexFileName)
	ix, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e.encode(ix[ord*IndexEntrySize:])
	if err := os.WriteFile(path, ix, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIndexBeyondDataAllocatesNothing: an entry whose length runs past
// the data file is refused by name before any buffer is sized from it —
// on the plain path and through the block cache — and the scratch never
// outgrows the file.
func TestIndexBeyondDataAllocatesNothing(t *testing.T) {
	payloads := [][]byte{[]byte("first"), []byte("second!"), []byte("third")}
	fileLen := 0
	for _, p := range payloads {
		fileLen += len(p)
	}
	for _, cached := range []bool{false, true} {
		topic := sealedTopic(t, payloads)
		good, err := topic.Entries()
		if err != nil {
			t.Fatal(err)
		}
		bad := good[1]
		bad.Length = 0x7fffffff
		corruptEntry(t, topic, 1, bad)
		entries, err := topic.Entries() // a one-shot handle reads the index again

		if err != nil {
			t.Fatal(err)
		}
		if cached {
			topic.cache = newMapCache(8) // every message spans blocks: the ReadAt fallback
		}
		df, err := topic.OpenData()
		if err != nil {
			t.Fatal(err)
		}
		defer df.Close()
		var scratch []byte
		if data, err := topic.ReadMessageInto(df, entries[0], &scratch); err != nil || !bytes.Equal(data, payloads[0]) {
			t.Fatalf("cached=%v: entry 0 = %q, %v", cached, data, err)
		}
		reads := map[string]func() error{
			"ReadMessageInto": func() error { _, err := topic.ReadMessageInto(df, entries[1], &scratch); return err },
			"ReadExtentInto":  func() error { _, _, err := topic.ReadExtentInto(df, viewOf(entries[1:]), &scratch); return err },
		}
		for name, read := range reads {
			err := read()
			if !errors.Is(err, ErrIndexBeyondData) {
				t.Fatalf("cached=%v %s: err = %v, want ErrIndexBeyondData", cached, name, err)
			}
			for _, want := range []string{`"/t"`, "entry 1", fmt.Sprint(bad.PhysicalOffset), fmt.Sprint(bad.Length)} {
				if !bytes.Contains([]byte(err.Error()), []byte(want)) {
					t.Errorf("cached=%v %s: error %q does not name %s", cached, name, err, want)
				}
			}
		}
		if cap(scratch) > fileLen {
			t.Errorf("cached=%v: scratch holds %d bytes against a %d-byte data file", cached, cap(scratch), fileLen)
		}
		// The extent before the bad entry still arrives: entry 0 alone.
		if _, k, err := topic.ReadExtentInto(df, viewOf(entries), &scratch); err != nil || k != 1 {
			t.Errorf("cached=%v: extent ahead of the bad entry covered %d entries, err %v; want 1", cached, k, err)
		}
	}
}

// TestReadBoundFollowsAGrowingFile: a part still being recorded grows
// under its readers, so an entry past the length known at open costs one
// re-seek, not a refusal. Appends reach the file at a Flush, the point
// where a live recorder hands a reader the entries.
func TestReadBoundFollowsAGrowingFile(t *testing.T) {
	c := newTestContainer(t)
	tw, err := c.CreateTopic(&bagio.Connection{Topic: "/t", Type: "x/Y"})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	if err := tw.Append(bagio.Time{Sec: 1}, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	topic := tw.Topic()
	df, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	if err := tw.Append(bagio.Time{Sec: 2}, []byte("after the open")); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	data, err := topic.ReadMessageInto(df, tw.LastEntry(), &scratch)
	if err != nil || string(data) != "after the open" {
		t.Errorf("read of a message appended after the open = %q, %v", data, err)
	}
}

// TestReadIndexChunked: an index of a few thousand entries loads entry
// for entry what the writer appended; a torn file reads as its whole
// entries and its tail, and a topic handle refuses it.
func TestReadIndexChunked(t *testing.T) {
	const n = 2*1024 + 37
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = make([]byte, i%5)
	}
	topic := sealedTopic(t, payloads)
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("loaded %d entries, want %d", len(entries), n)
	}
	var off uint64
	for i, e := range entries {
		want := IndexEntry{Time: bagio.Time{Sec: uint32(10 + i)}, LogicalOffset: off, Length: uint32(i % 5), PhysicalOffset: off}
		if e != want {
			t.Fatalf("entry %d = %+v, want %+v", i, e, want)
		}
		off += uint64(e.Length)
	}
	path := filepath.Join(topic.dir, IndexFileName)
	if err := os.Truncate(path, int64(n*IndexEntrySize-3)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if v := (IndexView{b: raw}); err != nil || v.Len() != n-1 || v.tail() != IndexEntrySize-3 {
		t.Errorf("torn file: %d entries, %d-byte tail, %v; want %d, %d, nil", v.Len(), v.tail(), err, n-1, IndexEntrySize-3)
	}
	fresh := &Topic{dir: topic.dir, topic: topic.topic}
	if _, err := fresh.Entries(); err == nil {
		t.Error("Entries accepted a file that is not a whole number of entries")
	}
}

// TestAllocBudgetAppend: once warm, a topic writer's appends allocate
// almost nothing per message. Payloads collect in the pooled append
// buffer and leave it in whole-buffer writes; the staged entries and the
// encoded index tail are reused across flushes; the published entry list
// and the time index grow by doubling. 20,000 appends of 345 B (the
// benchmark's /imu size) 1 ms apart stay under one allocation per
// hundred messages.
func TestAllocBudgetAppend(t *testing.T) {
	c := newTestContainer(t)
	tw, err := c.CreateTopic(&bagio.Connection{Topic: "/imu", Type: "x/Y"})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	const n = 20000
	payload := make([]byte, 345)
	appended := 0
	appendN := func() {
		for i := 0; i < n; i++ {
			if err := tw.Append(bagio.TimeFromNanos(1e18+int64(appended)*1e6), payload); err != nil {
				t.Fatal(err)
			}
			appended++
		}
	}
	// AllocsPerRun's first call is the warm-up.
	perMsg := testing.AllocsPerRun(1, appendN) / n
	t.Logf("%.4f allocations per appended message", perMsg)
	if perMsg >= 0.01 {
		t.Errorf("appends allocate %.4f times per message, want < 0.01", perMsg)
	}
}
