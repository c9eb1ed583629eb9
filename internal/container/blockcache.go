package container

import (
	"io"
	"time"

	"repro/internal/obs"
)

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
// internal/pool provides the bounded LRU implementation.
type BlockCache interface {
	// BlockSize returns the cache's fixed block width in bytes (> 0).
	BlockSize() int64
	Get(key BlockKey) ([]byte, bool)
	Put(key BlockKey, data []byte)
}

// ZeroCopyReader is optionally implemented by DataReaders that can
// serve a read as a direct slice of an internal buffer instead of
// copying into the caller's. ReadSlice returns the bytes of
// [off, off+n) and true when the whole span lies in one internal
// buffer, or (nil, false) to make the caller fall back to ReadAt.
//
// The returned slice is READ-ONLY: with the block cache behind it, the
// same bytes are shared by every concurrent reader of the topic. It
// remains valid as long as the caller references it (cache eviction
// only drops the cache's own reference), but hot paths should treat it
// as valid only until their next read, matching core.MessageRef's
// callback-scoped contract.
type ZeroCopyReader interface {
	ReadSlice(off int64, n int) ([]byte, bool)
}

// cachedReader adapts a topic DataReader to serve through a BlockCache:
// ReadAt decomposes the request into fixed-size blocks, copies hits out
// of the cache and fills misses from the underlying reader (recording
// each fill under container.block_fill). The final block of a file is
// short; it is cached at its true length, which is safe because sealed
// containers never grow.
type cachedReader struct {
	inner  dataFile
	cache  BlockCache
	path   string
	gen    uint64
	fillOp *obs.Op
	aq     *obs.ActiveQuery // query charged for hits/misses; nil = unattributed
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

// ReadSlice serves a read that fits inside one cache block as a direct
// slice of the cached buffer — the zero-copy path of cache-hit message
// reads. Reads spanning a block boundary report false and take the
// copying ReadAt path instead.
func (r *cachedReader) ReadSlice(off int64, n int) ([]byte, bool) {
	if off < 0 || n < 0 {
		return nil, false
	}
	bs := r.cache.BlockSize()
	block := off / bs
	within := off - block*bs
	if within+int64(n) > bs {
		return nil, false // spans blocks; fall back to ReadAt
	}
	data, err := r.block(block, bs)
	if err != nil || within+int64(n) > int64(len(data)) {
		return nil, false // error or short final block: let ReadAt report it
	}
	return data[within : within+int64(n) : within+int64(n)], true
}

// block returns the cached block's bytes, filling the cache on a miss.
func (r *cachedReader) block(block, bs int64) ([]byte, error) {
	key := BlockKey{Path: r.path, Gen: r.gen, Block: block}
	if data, ok := r.cache.Get(key); ok {
		r.aq.NoteBlock(true, 0)
		return data, nil
	}
	// The clock reads bracket real disk I/O, so their cost is noise; the
	// hit path above stays clock-free.
	var fillStart time.Time
	if r.aq != nil {
		fillStart = time.Now()
	}
	sp := r.fillOp.Start()
	buf := make([]byte, bs)
	n, err := r.inner.ReadAt(buf, block*bs)
	if err != nil && err != io.EOF {
		sp.EndErr(err)
		return nil, err
	}
	buf = buf[:n]
	sp.EndBytes(int64(n))
	if r.aq != nil {
		r.aq.NoteBlock(false, time.Since(fillStart))
	}
	r.cache.Put(key, buf)
	return buf, nil
}

func (r *cachedReader) Close() error { return r.inner.Close() }

func (r *cachedReader) length(want uint64) uint64 { return r.inner.length(want) }
