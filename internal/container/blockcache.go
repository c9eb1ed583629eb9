package container

import "io"

// BlockKey identifies one cached block of a topic's logical data
// stream. Gen is the container generation the bytes were read under:
// a repair or rebuild mints a new generation, so stale blocks of a
// replaced container can never be served (they simply stop being
// referenced and age out of the cache).
type BlockKey struct {
	Path  string // topic back-end directory
	Gen   uint64 // container generation at read time
	Block int64  // block ordinal (offset / BlockSize)
}

// BlockCache caches fixed-size blocks of topic data files. Containers
// are immutable once sealed, so entries never need explicit
// invalidation — the generation in the key takes care of rebuilds.
// Implementations must be safe for concurrent use. Get returns a
// slice the caller must not mutate; Put takes ownership of data.
// internal/pool provides the bounded LRU implementation (plugged in by
// the benchmark's cached-read probe only).
type BlockCache interface {
	// BlockSize returns the cache's fixed block width in bytes (> 0).
	BlockSize() int64
	Get(key BlockKey) ([]byte, bool)
	Put(key BlockKey, data []byte)
}

// cachedReader adapts a topic DataReader to serve through a BlockCache:
// run hands out a run of messages inside one block as a slice of it,
// and ReadAt, the fallback for what straddles blocks, copies hits out
// of the cache block by block. Misses fill from the underlying reader.
// The final block of a file is short; it is cached at its true length,
// which is safe because sealed containers never grow.
type cachedReader struct {
	inner dataFile
	cache BlockCache
	path  string
	gen   uint64
}

func (r *cachedReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, io.EOF
	}
	bs := r.cache.BlockSize()
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		block := pos / bs
		within := pos - block*bs
		data, err := r.block(block, bs)
		if err != nil {
			return n, err
		}
		if within >= int64(len(data)) {
			return n, io.EOF // request starts past the end of the stream
		}
		c := copy(p[n:], data[within:])
		n += c
		if int64(len(data)) < bs && n < len(p) {
			return n, io.EOF // short final block: the stream ends here
		}
	}
	return n, nil
}

// run serves the leading run of entries that lies inside the head's
// cache block — planned by extentRun against the end of that block, or
// the file's size if that comes first — as one slice of the cached
// block: no copy, no syscall, one cache lookup for the whole run. It
// reports k = 0 when the head straddles a block boundary, when the
// block comes back shorter than the run (a short final block), or when
// the fill fails, so the caller falls back to ReadAt, which copies
// across blocks and reports errors.
//
// The slice is READ-ONLY: the same bytes are shared by every concurrent
// reader of the topic. Cache eviction only drops the cache's own
// reference, so it stays valid while the caller holds it.
func (r *cachedReader) run(entries []IndexEntry, size uint64) (data []byte, k int) {
	bs := r.cache.BlockSize()
	head := entries[0]
	block := int64(head.PhysicalOffset / uint64(bs))
	start := uint64(block * bs)
	if head.end() > start+uint64(bs) {
		return nil, 0 // straddles blocks
	}
	k, n := extentRun(entries, min(start+uint64(bs), size))
	data, err := r.block(block, bs)
	lo, hi := head.PhysicalOffset-start, head.PhysicalOffset-start+uint64(n)
	if err != nil || hi > uint64(len(data)) {
		return nil, 0
	}
	return data[lo:hi:hi], k
}

// block returns the cached block's bytes, filling the cache on a miss.
func (r *cachedReader) block(block, bs int64) ([]byte, error) {
	key := BlockKey{Path: r.path, Gen: r.gen, Block: block}
	if data, ok := r.cache.Get(key); ok {
		return data, nil
	}
	buf := make([]byte, bs)
	n, err := r.inner.ReadAt(buf, block*bs)
	if err != nil && err != io.EOF {
		return nil, err
	}
	buf = buf[:n]
	r.cache.Put(key, buf)
	return buf, nil
}

func (r *cachedReader) Close() error { return r.inner.Close() }

func (r *cachedReader) length(want uint64) uint64 { return r.inner.length(want) }
