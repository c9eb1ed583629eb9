package container

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/bagio"
	"repro/internal/obs"
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

// TestIndexFollowsWriter: on a topic still being written, Index serves
// every entry published so far — including ones published after an
// earlier call, and ones stamped before the first — and a view taken
// earlier keeps the entries it had.
func TestIndexFollowsWriter(t *testing.T) {
	c := newTestContainer(t)
	tw, err := c.CreateTopic(&bagio.Connection{Topic: "/t", Type: "x/Y"})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	topic := tw.Topic()
	secs := []uint32{10, 11, 20, 5}
	var views []IndexView
	for _, sec := range secs {
		if err := tw.Append(bagio.Time{Sec: sec}, []byte("m")); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		v, err := topic.Index(obs.Span{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
		for i, v := range views {
			if v.Len() != i+1 {
				t.Fatalf("after an append at %ds: view %d holds %d entries, want %d", sec, i, v.Len(), i+1)
			}
			for j := 0; j < v.Len(); j++ {
				if v.Time(j).Sec != secs[j] {
					t.Errorf("after an append at %ds: view %d entry %d at %v, want %ds", sec, i, j, v.Time(j), secs[j])
				}
			}
		}
	}
}
