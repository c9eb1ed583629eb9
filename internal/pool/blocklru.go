package pool

import (
	"container/list"
	"sync"

	"repro/internal/container"
	"repro/internal/obs"
)

// BlockLRU is the pool's bounded block cache: a byte-capped LRU of
// fixed-size topic-data blocks implementing container.BlockCache. One
// instance is shared by every container the pool opens; keys carry the
// container generation, so blocks of a removed or rebuilt container
// stop being referenced and age out rather than needing invalidation.
// Safe for concurrent use.
type BlockLRU struct {
	blockSize int64
	capacity  int64

	hitsC      *obs.Counter // pool.block_hits
	missesC    *obs.Counter // pool.block_misses
	evictionsC *obs.Counter // pool.block_evictions
	hitBytesC  *obs.Counter // pool.block_hit_bytes
	fillBytesC *obs.Counter // pool.block_fill_bytes
	bytesG     *obs.Gauge   // pool.block_bytes

	mu        sync.Mutex
	size      int64
	items     map[container.BlockKey]*list.Element
	lru       *list.List // of *blockItem; front = most recently used
	hits      int64
	misses    int64
	evictions int64
	hitBytes  int64
	fillBytes int64
}

type blockItem struct {
	key  container.BlockKey
	data []byte
}

// NewBlockLRU builds a block cache holding at most capacity payload
// bytes in blockSize-wide blocks, registering its metrics on reg (a
// nil registry disables recording, not the cache).
func NewBlockLRU(capacity, blockSize int64, reg *obs.Registry) *BlockLRU {
	return &BlockLRU{
		blockSize:  blockSize,
		capacity:   capacity,
		hitsC:      reg.Counter("pool.block_hits"),
		missesC:    reg.Counter("pool.block_misses"),
		evictionsC: reg.Counter("pool.block_evictions"),
		hitBytesC:  reg.Counter("pool.block_hit_bytes"),
		fillBytesC: reg.Counter("pool.block_fill_bytes"),
		bytesG:     reg.Gauge("pool.block_bytes"),
		items:      map[container.BlockKey]*list.Element{},
		lru:        list.New(),
	}
}

// BlockSize returns the fixed block width.
func (c *BlockLRU) BlockSize() int64 { return c.blockSize }

// Get returns the cached block, promoting it to most-recently-used.
// The returned slice must not be mutated.
func (c *BlockLRU) Get(key container.BlockKey) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		c.missesC.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	// Taken under the lock: a concurrent Put of the same key replaces it.
	data := el.Value.(*blockItem).data
	c.hits++
	c.hitBytes += int64(len(data))
	c.mu.Unlock()
	c.hitsC.Inc()
	c.hitBytesC.Add(int64(len(data)))
	return data, true
}

// Put inserts (or refreshes) a block, taking ownership of data, then
// evicts from the cold end until the cache fits its byte capacity. A
// block wider than the whole capacity is not cached.
func (c *BlockLRU) Put(key container.BlockKey, data []byte) {
	n := int64(len(data))
	if n > c.capacity {
		return
	}
	var evictedBlocks int64
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*blockItem)
		c.size += n - int64(len(it.data))
		it.data = data
		c.lru.MoveToFront(el)
	} else {
		c.items[key] = c.lru.PushFront(&blockItem{key: key, data: data})
		c.size += n
	}
	c.fillBytes += n
	for c.size > c.capacity {
		back := c.lru.Back()
		it := back.Value.(*blockItem)
		c.lru.Remove(back)
		delete(c.items, it.key)
		c.size -= int64(len(it.data))
		c.evictions++
		evictedBlocks++
	}
	size := c.size
	c.mu.Unlock()
	c.fillBytesC.Add(n)
	c.evictionsC.Add(evictedBlocks)
	c.bytesG.Set(size)
}

// BlockStats is a point-in-time summary of a BlockLRU.
type BlockStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	HitBytes  int64 // payload bytes served from cache
	FillBytes int64 // payload bytes inserted
	Resident  int64 // payload bytes currently cached
	Blocks    int   // blocks currently cached
}

// Stats returns the cache's current counters.
func (c *BlockLRU) Stats() BlockStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return BlockStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		HitBytes:  c.hitBytes,
		FillBytes: c.fillBytes,
		Resident:  c.size,
		Blocks:    c.lru.Len(),
	}
}
