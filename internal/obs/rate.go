package obs

import (
	"sort"
	"sync"
	"time"
)

// RateTracker measures per-key event rates over a sliding window — the
// hot-bag detector behind cluster mode. The serving daemon's pool owns
// one: every query is Noted against its bag name, the bags above a QPS
// threshold are reported and their handles kept out of LRU eviction.
// The cluster client runs its own tracker over the queries it routes
// and widens a hot bag's replica set.
//
// The window is quantized into buckets (a ring of per-bucket counts per
// key), so Note is O(1), memory is bounded by maxKeys, and the reported
// rate forgets traffic older than the window. All methods are safe for
// concurrent use.
type RateTracker struct {
	window  time.Duration
	slot    time.Duration
	buckets int

	mu   sync.Mutex
	keys map[string]*rateEntry
	now  func() time.Time // injectable for tests
}

// maxRateKeys bounds the tracker's key map; past it, idle keys are
// pruned and — if everything is somehow live — new keys go untracked
// rather than growing without bound (an adversarial client can invent
// bag names; it must not be able to invent memory).
const maxRateKeys = 4096

// rateEntry is one key's bucket ring. head is the absolute slot index
// counts[head%len] corresponds to; older buckets trail behind it.
type rateEntry struct {
	counts []int64
	head   int64
}

// DefaultRateWindow is the sliding window when callers pass zero: long
// enough to smooth bursts, short enough that a cooled-off bag stops
// reading as hot within seconds.
const DefaultRateWindow = 10 * time.Second

// NewRateTracker builds a tracker over a sliding window quantized into
// buckets (zeros select DefaultRateWindow and 10 buckets).
func NewRateTracker(window time.Duration, buckets int) *RateTracker {
	if window <= 0 {
		window = DefaultRateWindow
	}
	if buckets <= 0 {
		buckets = 10
	}
	return &RateTracker{
		window:  window,
		slot:    window / time.Duration(buckets),
		buckets: buckets,
		keys:    make(map[string]*rateEntry),
		now:     time.Now,
	}
}

// Note records one event against key.
func (t *RateTracker) Note(key string) {
	if t == nil {
		return
	}
	slot := int64(t.now().UnixNano()) / int64(t.slot)
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.keys[key]
	if !ok {
		if len(t.keys) >= maxRateKeys {
			t.pruneLocked(slot)
			if len(t.keys) >= maxRateKeys {
				return // every key live: drop rather than grow
			}
		}
		e = &rateEntry{counts: make([]int64, t.buckets), head: slot}
		t.keys[key] = e
	}
	e.advance(slot, t.buckets)
	e.counts[slot%int64(t.buckets)]++
}

// advance zeroes the buckets between the entry's head and slot, rolling
// the ring forward to the current time.
func (e *rateEntry) advance(slot int64, buckets int) {
	if gap := slot - e.head; gap >= int64(buckets) {
		for i := range e.counts {
			e.counts[i] = 0
		}
	} else {
		for s := e.head + 1; s <= slot; s++ {
			e.counts[s%int64(buckets)] = 0
		}
	}
	if slot > e.head {
		e.head = slot
	}
}

// Rate returns key's event rate in events/second over the sliding
// window (0 for an unknown key).
func (t *RateTracker) Rate(key string) float64 {
	if t == nil {
		return 0
	}
	slot := int64(t.now().UnixNano()) / int64(t.slot)
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.keys[key]
	if !ok {
		return 0
	}
	return t.rateLocked(e, slot)
}

func (t *RateTracker) rateLocked(e *rateEntry, slot int64) float64 {
	var total int64
	for s := slot - int64(t.buckets) + 1; s <= slot; s++ {
		if s <= e.head { // buckets past head are stale, not yet zeroed
			total += e.counts[s%int64(t.buckets)]
		}
	}
	return float64(total) / t.window.Seconds()
}

// HotKey is one key at or above a rate threshold.
type HotKey struct {
	Key  string
	Rate float64 // events/second over the window
}

// Above returns every key whose windowed rate is at least min, hottest
// first (ties broken by name for determinism), pruning idle keys as it
// goes.
func (t *RateTracker) Above(min float64) []HotKey {
	if t == nil {
		return nil
	}
	slot := int64(t.now().UnixNano()) / int64(t.slot)
	t.mu.Lock()
	defer t.mu.Unlock()
	var hot []HotKey
	for key, e := range t.keys {
		r := t.rateLocked(e, slot)
		if r == 0 {
			delete(t.keys, key) // window fully rolled past: forget
			continue
		}
		if r >= min {
			hot = append(hot, HotKey{Key: key, Rate: r})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Rate != hot[j].Rate {
			return hot[i].Rate > hot[j].Rate
		}
		return hot[i].Key < hot[j].Key
	})
	return hot
}

// pruneLocked drops keys whose windows have fully rolled past.
func (t *RateTracker) pruneLocked(slot int64) {
	for key, e := range t.keys {
		if t.rateLocked(e, slot) == 0 {
			delete(t.keys, key)
		}
	}
}
