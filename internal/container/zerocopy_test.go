package container

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/bagio"
)

// mapCache is a minimal unbounded BlockCache for tests.
type mapCache struct {
	bs int64
	mu sync.Mutex
	m  map[BlockKey][]byte
}

func newMapCache(bs int64) *mapCache {
	return &mapCache{bs: bs, m: map[BlockKey][]byte{}}
}

func (c *mapCache) BlockSize() int64 { return c.bs }

func (c *mapCache) Get(key BlockKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.m[key]
	return data, ok
}

func (c *mapCache) Put(key BlockKey, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = data
}

// sealedTopic builds a sealed single-topic container with the given
// payloads at seconds 10, 11, ... and reopens it from disk.
func sealedTopic(t *testing.T, payloads [][]byte) *Topic {
	t.Helper()
	c := newTestContainer(t)
	tw, err := c.CreateTopic(&bagio.Connection{Topic: "/t", Type: "x/Y"})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if err := tw.Append(bagio.Time{Sec: uint32(10 + i)}, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(c.Root())
	if err != nil {
		t.Fatal(err)
	}
	topic, err := c2.Topic("/t")
	if err != nil {
		t.Fatal(err)
	}
	return topic
}

// TestReadMessageIntoCacheSlice: with a block cache whose blocks cover
// whole messages, ReadMessageInto serves cache hits as direct slices of
// the cached block — the scratch buffer is never touched.
func TestReadMessageIntoCacheSlice(t *testing.T) {
	payloads := [][]byte{[]byte("first"), []byte("second message"), []byte("x")}
	topic := sealedTopic(t, payloads)
	topic.cache = newMapCache(1 << 16)
	df, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	for i, e := range entries {
		data, err := topic.ReadMessageInto(df, e, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, payloads[i]) {
			t.Errorf("message %d = %q, want %q", i, data, payloads[i])
		}
	}
	if cap(scratch) != 0 {
		t.Errorf("scratch grew to %d bytes; cache-hit reads should be zero-copy", cap(scratch))
	}
	// The same entry read twice must alias the same cached block.
	d1, err := topic.ReadMessageInto(df, entries[0], &scratch)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := topic.ReadMessageInto(df, entries[0], &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &d1[0] != &d2[0] {
		t.Error("repeat cache-hit reads returned different buffers; expected a shared cache slice")
	}
}

// TestReadMessageIntoSpansBlocks: a message larger than the cache block
// cannot be served as one slice; ReadMessageInto must fall back to the
// copying path (through the scratch buffer) and still return the right
// bytes.
func TestReadMessageIntoSpansBlocks(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 8) // 128 B
	payloads := [][]byte{[]byte("tiny"), big}
	topic := sealedTopic(t, payloads)
	topic.cache = newMapCache(32) // every big message spans blocks
	df, err := topic.OpenData()
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	entries, err := topic.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	for i, e := range entries {
		data, err := topic.ReadMessageInto(df, e, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, payloads[i]) {
			t.Errorf("message %d mismatch (len %d vs %d)", i, len(data), len(payloads[i]))
		}
	}
	if cap(scratch) < len(big) {
		t.Errorf("scratch cap = %d; the spanning read should have used it", cap(scratch))
	}
}

// TestTimeRangeFollowsWriter: on a topic still being written,
// TimeRange covers every entry published so far — including ones
// published after an earlier call, and ones stamped before the first.
func TestTimeRangeFollowsWriter(t *testing.T) {
	c := newTestContainer(t)
	tw, err := c.CreateTopic(&bagio.Connection{Topic: "/t", Type: "x/Y"})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	topic := tw.Topic()
	for _, step := range []struct{ sec, wantStart, wantEnd uint32 }{
		{10, 10, 10}, {11, 10, 11}, {20, 10, 20}, {5, 5, 20},
	} {
		if err := tw.Append(bagio.Time{Sec: step.sec}, []byte("m")); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		start, end, err := topic.TimeRange()
		if err != nil {
			t.Fatal(err)
		}
		if start.Sec != step.wantStart || end.Sec != step.wantEnd {
			t.Errorf("after an append at %ds: TimeRange = [%v, %v], want secs [%d, %d]",
				step.sec, start, end, step.wantStart, step.wantEnd)
		}
	}
}
