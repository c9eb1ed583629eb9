package container

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"repro/internal/bagio"
	"repro/internal/obs"
)

// IndexEntrySize is the fixed on-disk width of one index entry:
// sec u32, nsec u32, logical offset u64, length u32, physical offset u64.
const IndexEntrySize = 4 + 4 + 8 + 4 + 8

// IndexEntry locates one message of a topic. LogicalOffset is the byte
// offset within the topic's logical stream; PhysicalOffset points into
// the topic data file (they coincide for the local POSIX back end but
// differ when a back end relocates data).
type IndexEntry struct {
	Time           bagio.Time
	LogicalOffset  uint64
	Length         uint32
	PhysicalOffset uint64
}

func (e IndexEntry) encode(dst []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], e.Time.Sec)
	binary.LittleEndian.PutUint32(dst[4:8], e.Time.NSec)
	binary.LittleEndian.PutUint64(dst[8:16], e.LogicalOffset)
	binary.LittleEndian.PutUint32(dst[16:20], e.Length)
	binary.LittleEndian.PutUint64(dst[20:28], e.PhysicalOffset)
}

func decodeIndexEntry(src []byte) IndexEntry {
	src = src[:IndexEntrySize]
	return IndexEntry{
		Time:           bagio.Time{Sec: binary.LittleEndian.Uint32(src[0:4]), NSec: binary.LittleEndian.Uint32(src[4:8])},
		LogicalOffset:  binary.LittleEndian.Uint64(src[8:16]),
		Length:         binary.LittleEndian.Uint32(src[16:20]),
		PhysicalOffset: binary.LittleEndian.Uint64(src[20:28]),
	}
}

// IndexView is a run of encoded index entries, read where they lie: a
// sealed part's mapped index file, a writer's append buffer, or the
// survivors a query selected. At decodes one entry, Time one timestamp;
// nothing decodes a whole index. Copies of a view share its bytes.
type IndexView struct {
	b []byte
	m *mapping // the mapping b lies in, if any: Close releases a one-shot one
}

// Len returns the number of whole entries in the view.
func (v IndexView) Len() int { return len(v.b) / IndexEntrySize }

// At decodes entry i.
func (v IndexView) At(i int) IndexEntry { return decodeIndexEntry(v.b[i*IndexEntrySize:]) }

// Time decodes entry i's timestamp alone.
func (v IndexView) Time(i int) bagio.Time {
	x := binary.LittleEndian.Uint64(v.b[i*IndexEntrySize:])
	return bagio.Time{Sec: uint32(x), NSec: uint32(x >> 32)}
}

// tail is the length of a torn entry after the whole ones.
func (v IndexView) tail() int { return len(v.b) % IndexEntrySize }

// Slice returns entries [lo, hi) as a view of the same bytes.
func (v IndexView) Slice(lo, hi int) IndexView {
	return IndexView{b: v.b[lo*IndexEntrySize : hi*IndexEntrySize : hi*IndexEntrySize], m: v.m}
}

// MakeIndexView returns an empty view with room for n appended entries.
func MakeIndexView(n int) IndexView { return IndexView{b: make([]byte, 0, n*IndexEntrySize)} }

// Append returns the view with e encoded after its entries. A view that
// Index or Slice returns is full to its capacity, so appending copies
// it: only views built by MakeIndexView and Append grow in place.
func (v IndexView) Append(e IndexEntry) IndexView {
	n := len(v.b)
	v.b = append(v.b, make([]byte, IndexEntrySize)...)
	e.encode(v.b[n:])
	return v
}

// Reset empties a view built by MakeIndexView and Append, keeping its
// room. Only such a view: any other's bytes are shared.
func (v IndexView) Reset() IndexView { return IndexView{b: v.b[:0]} }

// SortedByTime returns v's entries stably sorted by time, as a new view.
func (v IndexView) SortedByTime() IndexView {
	es := v.entries()
	sort.SliceStable(es, func(i, j int) bool { return es[i].Time.Before(es[j].Time) })
	out := MakeIndexView(len(es))
	for _, e := range es {
		out = out.Append(e)
	}
	return out
}

// entries decodes the view into a fresh slice.
func (v IndexView) entries() []IndexEntry {
	es := make([]IndexEntry, v.Len())
	for i := range es {
		es[i] = v.At(i)
	}
	return es
}

// Close releases a view Index returned: a one-shot handle's mapping is
// unmapped, and no view of it may be read again.
func (v IndexView) Close() {
	if v.m != nil {
		v.m.Close()
	}
}

// Index returns the topic's index, its first load from a sealed part
// traced as a container.index_load child of parent. A part being
// written serves its writer's published entries. A sealed part maps its
// index file: once for a handle that maps its data (MapData), else once
// per call, for the caller to Close; where mmap fails, the file is read.
// A torn final entry is refused (fsck reports it, repair drops it).
func (t *Topic) Index(parent obs.Span) (IndexView, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.indexLocked(parent, true)
}

// ReadIndex is Index read into bytes of its own, never a mapping: for a
// walk over every entry (Entries, TimeRange, a bag's Info) that runs
// outside a query's fault recovery, which a cut under it must not
// crash.
func (t *Topic) ReadIndex() (IndexView, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.indexLocked(obs.Span{}, false)
}

func (t *Topic) indexLocked(parent obs.Span, mapped bool) (IndexView, error) {
	if t.loaded && (mapped || t.ix.m == nil) {
		// A pooled handle's mapping is measured again (one stat): an index
		// cut between queries is refused here, not read as zeros.
		if m := t.ix.m; m != nil && m.measure() < uint64(len(m.data)) {
			return IndexView{}, fmt.Errorf("container: index of %q cut to %d of its %d bytes since it was mapped: %w",
				t.topic, m.size.Load(), len(m.data), ErrIndexBeyondData)
		}
		return t.ix, nil
	}
	sp := parent.ChildOp(t.indexLoadOp)
	path := filepath.Join(t.dir, IndexFileName)
	var v IndexView
	var err error
	if mapped {
		v.m, err = mapFile(path, !t.mapped)
	}
	if v.m != nil {
		v.b = v.m.data
	} else if err == nil {
		v.b, err = os.ReadFile(path)
	}
	if err == nil && v.tail() != 0 {
		v.Close()
		err = fmt.Errorf("%d-byte torn entry after %d whole ones", v.tail(), v.Len())
	}
	if err != nil {
		err = fmt.Errorf("container: index of %q: %w", t.topic, err)
		sp.EndErr(err)
		return IndexView{}, err
	}
	sp.EndBytes(int64(len(v.b)))
	if t.mapped && mapped {
		t.ix, t.loaded = v, true
	}
	return v, nil
}

// IndexGuard is what a cursor checks before it reads each entry of sel,
// a selection it reads across callbacks that may cut the part's index
// under it, and from which entry on it must take HoldTail's copy
// instead. A selection lying in a mapping is guarded as a sliced data
// run is (Guard): the guard is a word of the mapping's last page, which
// faults on any cut below it, so it vouches for every entry that ends
// below that page. The entries from the returned position on reach into
// the page, which a cut inside reads as zeros. Any other selection is
// the cursor's own: the zero Guard, and no position.
func (t *Topic) IndexGuard(sel IndexView) (Guard, int) {
	m := sel.m
	if m == nil || sel.Len() == 0 {
		return Guard{}, math.MaxInt
	}
	off, _ := m.offset(uintptr(unsafe.Pointer(unsafe.SliceData(sel.b))))
	last := m.lastPage()
	return m.guard(), int(max(last, uint64(off))-uint64(off)) / IndexEntrySize
}

// HoldTail copies sel's entries from i on — those IndexGuard found in
// the mapping's last page — into *scratch, then measures the index file
// again, so that what the cursor reads from then on is the index, not
// zeros a cut left in the page, and no later cut changes it; a file cut
// short of the copy is ErrIndexBeyondData.
func (t *Topic) HoldTail(sel IndexView, i int, scratch *[]byte) (IndexView, error) {
	rest := sel.b[i*IndexEntrySize:]
	*scratch = append((*scratch)[:0], rest...)
	off, _ := sel.m.offset(uintptr(unsafe.Pointer(unsafe.SliceData(rest))))
	if end := uint64(off) + uint64(len(rest)); sel.m.measure() < end {
		return IndexView{}, fmt.Errorf("container: topic %q: index cut under a mapped read, to %d bytes of the %d read: %w",
			t.topic, sel.m.size.Load(), end, ErrIndexBeyondData)
	}
	return IndexView{b: *scratch}, nil
}

// Ordered returns how many of v's leading entries — v is the topic's
// index or a prefix of it — are in time order (non-decreasing Time).
// It is found on the first call, and only grows as a writer publishes
// entries, while the order reaches the end; a topic-order scan never
// asks.
func (t *Topic) Ordered(v IndexView) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.ordered == t.checked && t.checked < v.Len() {
		if t.checked == 0 || !v.Time(t.checked).Before(v.Time(t.checked-1)) {
			t.ordered++
		}
		t.checked++
	}
	return min(t.ordered, v.Len())
}

// Entries decodes the topic's index entries, in append order, into a
// fresh slice; queries read the index through Index.
func (t *Topic) Entries() ([]IndexEntry, error) {
	v, err := t.ReadIndex()
	return v.entries(), err
}

// MessageCount returns the number of indexed messages.
func (t *Topic) MessageCount() (int, error) {
	v, err := t.Index(obs.Span{})
	v.Close()
	return v.Len(), err
}

// TimeRange returns the earliest and latest message timestamps of the
// topic's index entries — the zero times for an empty topic. On a topic
// still being written it covers every entry published so far.
func (t *Topic) TimeRange() (start, end bagio.Time, err error) {
	v, err := t.ReadIndex()
	for i := 0; i < v.Len(); i++ {
		ts := v.Time(i)
		if i == 0 || ts.Before(start) {
			start = ts
		}
		if i == 0 || end.Before(ts) {
			end = ts
		}
	}
	return start, end, err
}

// ordinal is e's position among the topic's entries, -1 if it is none
// of them: looked up only to name an entry in an error.
func (t *Topic) ordinal(e IndexEntry) int {
	v, _ := t.ReadIndex()
	for i := 0; i < v.Len(); i++ {
		if v.At(i) == e {
			return i
		}
	}
	return -1
}
