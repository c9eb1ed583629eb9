// Package pool is the shared serving layer over a core.BORA back end:
// a concurrency-safe cache of open bag handles, built for the
// read-mostly, reopen-heavy traffic of many concurrent analysis
// clients. A pooled handle reads each sealed part through one read-only
// mapping of its data file (core.Bag.MapData), shared by every query of
// the handle, so a warm query hands out the page cache's bytes: no
// syscall per read and no copy in user space.
//
// The paper accepts rebuilding the tag manager's hash table on every
// open because one build is cheap (Table I); with N clients reopening
// the same bags the rebuilds dominate. The pool keeps an LRU of open
// *core.Bag handles with singleflight deduplication — N concurrent
// Acquires of the same bag pay one tag-table/index build — and
// validates each cached handle against the sealed container meta's
// generation token, so Remove, Repair and re-Duplicate make stale
// handles fall out instead of serving a deleted or rebuilt layout.
package pool

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Defaults used when an Options field is zero. The block sizes size a
// BlockLRU, which the pool no longer builds: they stay for the
// benchmark's cached-read probe until the block cache is deleted.
const (
	DefaultMaxBags         = 64
	DefaultBlockCacheBytes = 64 << 20
	DefaultBlockSize       = 256 << 10
)

// Options configure a Pool.
type Options struct {
	// BlockCacheBytes is unused (pooled handles map their parts); it
	// stays for the benchmark, which sets it, until the cache is deleted.
	BlockCacheBytes int64

	// maxBags (resident open handles) is DefaultMaxBags unless this
	// package's tests shrink it to fixture scale. Evicted and invalidated
	// handles stay valid for clients already holding them (a Bag keeps no
	// open file descriptors between queries, and its mappings live as
	// long as it does); they simply stop being shared.
	maxBags int
}

// Pool serves shared open handles for one BORA back end. All methods
// are safe for concurrent use.
type Pool struct {
	b       *core.BORA
	maxBags int

	acquireOp     *obs.Op
	hits          *obs.Counter // pool.handle_hits
	misses        *obs.Counter // pool.handle_misses
	evictions     *obs.Counter // pool.handle_evictions
	invalidations *obs.Counter // pool.handle_invalidations
	resident      *obs.Gauge   // pool.handles_resident

	mu       sync.Mutex
	bags     map[string]*entry
	lru      *list.List // of *entry; front = most recently acquired
	hitN     int64
	missN    int64
	evictN   int64
	invalidN int64
}

// entry is one pooled bag. Its mutex is the singleflight gate: the
// holder is the one client opening (or validating) the handle, and
// every concurrent Acquire of the same name waits on it instead of
// starting its own tag-table build.
type entry struct {
	name string
	elem *list.Element

	mu  sync.Mutex
	bag *core.Bag
	gen uint64 // generation the handle was opened under (0 = live-wired)
}

// New builds a pool over b, registering its metrics on b's obs
// registry (see DESIGN.md for the metric names).
func New(b *core.BORA, opts Options) *Pool {
	if opts.maxBags <= 0 {
		opts.maxBags = DefaultMaxBags
	}
	reg := b.Obs()
	p := &Pool{
		b:             b,
		maxBags:       opts.maxBags,
		acquireOp:     reg.Op("pool.acquire"),
		hits:          reg.Counter("pool.handle_hits"),
		misses:        reg.Counter("pool.handle_misses"),
		evictions:     reg.Counter("pool.handle_evictions"),
		invalidations: reg.Counter("pool.handle_invalidations"),
		resident:      reg.Gauge("pool.handles_resident"),
		bags:          map[string]*entry{},
		lru:           list.New(),
	}
	return p
}

// Acquire returns an open handle for the named bag, sharing one handle
// across all concurrent clients. A resident handle costs one small
// meta read (the staleness probe); a miss performs the cold open —
// deduplicated, so concurrent misses on the same name build once —
// and has the handle map its sealed parts as it reads them.
func (p *Pool) Acquire(name string) (*core.Bag, error) {
	return p.AcquireContextSpan(context.Background(), name, obs.Span{})
}

// AcquireContextSpan is Acquire with the pool.acquire span nested under
// parent (e.g. a front-end vfs.open; a zero parent traces it as a root)
// and an upfront cancellation check: a request whose context died while
// it sat in admission control (or in a client's retry loop) skips the
// cold open entirely instead of warming the cache for a departed
// caller. A context that expires mid-open does not abort the open — the
// handle is cached for the next client and the error surfaces on the
// caller's next check.
func (p *Pool) AcquireContextSpan(ctx context.Context, name string, parent obs.Span) (*core.Bag, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := parent.ChildOp(p.acquireOp)
	bag, hit, err := p.acquire(name, sp)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	p.mu.Lock()
	if hit {
		p.hitN++
	} else {
		p.missN++
	}
	p.mu.Unlock()
	if hit {
		p.hits.Inc()
	} else {
		p.misses.Inc()
	}
	sp.End()
	return bag, nil
}

func (p *Pool) acquire(name string, sp obs.Span) (*core.Bag, bool, error) {
	e := p.entryFor(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bag != nil {
		// Staleness probe: re-read the bag meta's first header and
		// compare the generation token minted at seal time. One read of
		// the manifest's first bytes against the manifest decode +
		// readdir + tag-table build of a cold open — and it catches out-of-band mutations
		// (Repair, Remove + re-Duplicate) that never went through this
		// pool. Live bags add one wrinkle: while a recording is in
		// progress there is no generation yet, so a handle is fresh
		// exactly when it is wired to the in-process recorder; once the
		// recording completes the wired handle's zero generation stops
		// matching the sealed meta and the next Acquire reopens the
		// finished bag.
		gen, recording, err := p.b.ProbeBag(e.name)
		fresh := false
		if err == nil {
			if recording {
				fresh = e.bag.LiveWired()
			} else {
				fresh = gen != 0 && gen == e.gen
			}
		}
		if fresh {
			return e.bag, true, nil
		}
		e.bag = nil // stale: fall through to a fresh open
		p.mu.Lock()
		p.invalidN++
		p.mu.Unlock()
		p.invalidations.Inc()
	}
	bag, err := p.b.OpenSpan(name, sp)
	if err != nil {
		p.drop(e) // do not cache failures
		return nil, false, err
	}
	// A no-op on live-wired handles: a growing data file keeps pread.
	bag.MapData()
	e.bag, e.gen = bag, bag.Generation()
	return bag, false, nil
}

// entryFor returns the live entry for name, creating it (and evicting
// from the cold end past maxBags) as needed.
func (p *Pool) entryFor(name string) *entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.bags[name]; ok {
		p.lru.MoveToFront(e.elem)
		return e
	}
	e := &entry{name: name}
	e.elem = p.lru.PushFront(e)
	p.bags[name] = e
	for len(p.bags) > p.maxBags {
		victim := p.lru.Back()
		ev := victim.Value.(*entry)
		p.lru.Remove(victim)
		delete(p.bags, ev.name)
		p.evictN++
		p.evictions.Inc()
	}
	p.resident.Set(int64(len(p.bags)))
	return e
}

// drop removes e if it is still the live entry for its name (a newer
// entry may have replaced it after an eviction).
func (p *Pool) drop(e *entry) {
	p.mu.Lock()
	if cur, ok := p.bags[e.name]; ok && cur == e {
		delete(p.bags, e.name)
		p.lru.Remove(e.elem)
		p.resident.Set(int64(len(p.bags)))
	}
	p.mu.Unlock()
}

// Stats is a point-in-time summary of the pool's handle cache. Block
// is always zero (no block cache); the benchmark reads it.
type Stats struct {
	HandleHits          int64
	HandleMisses        int64
	HandleEvictions     int64
	HandleInvalidations int64
	HandlesResident     int
	Block               BlockStats
}

// Stats returns the pool's current counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		HandleHits:          p.hitN,
		HandleMisses:        p.missN,
		HandleEvictions:     p.evictN,
		HandleInvalidations: p.invalidN,
		HandlesResident:     len(p.bags),
	}
}
